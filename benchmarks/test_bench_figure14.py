"""Benchmark: Figure 14 — cruise-liner certificates among QUIC services."""

from repro.analysis.figures import figure14


def test_bench_figure14(benchmark, population):
    result = benchmark(figure14.compute, population.quic_services())
    print()
    print(result.render_text())
    assert result.share_san_below_10pct > 0.5
