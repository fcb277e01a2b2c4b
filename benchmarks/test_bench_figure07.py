"""Benchmark: Figure 7 — top-10 parent certificate chains (QUIC and HTTPS-only)."""

from repro.analysis.figures import figure07


def test_bench_figure07a(benchmark, population):
    result = benchmark(figure07.compute, population.quic_services(), "QUIC services")
    print()
    print(result.render_text())
    assert result.top10_coverage > 0.9
    assert "Cloudflare" in result.rows[0].label


def test_bench_figure07b(benchmark, population):
    result = benchmark(
        figure07.compute, population.https_only_services(), "HTTPS-only services"
    )
    print()
    print(result.render_text())
    assert 0.55 < result.top10_coverage < 0.9
