"""Benchmark: Figure 6 — certificate chain size distributions by QUIC support."""

from repro.analysis.figures import figure06


def test_bench_figure06(benchmark, population):
    result = benchmark(
        figure06.compute,
        population.quic_services(),
        population.https_only_services(),
    )
    print()
    print(result.render_text())
    assert result.quic_median < result.https_only_median
    assert 0.2 < result.share_exceeding_limit < 0.5
