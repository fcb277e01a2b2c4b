"""Benchmark: Figure 12 — QUIC / HTTPS-only deployment shares per rank group."""

from repro.analysis.figures import figure12


def test_bench_figure12(benchmark, population):
    deployments = list(population.deployments)
    result = benchmark(figure12.compute, deployments)
    print()
    print(result.render_text())
    assert 0.15 < result.mean_quic_share < 0.30
