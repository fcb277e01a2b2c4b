"""Benchmark: Figure 8 — mean certificate field sizes by certificate type."""

from repro.analysis.figures import figure08


def test_bench_figure08(benchmark, population):
    result = benchmark(figure08.compute, population.quic_services())
    print()
    print(result.render_text())
    assert result.large_chain_nonleaf_heaviest
