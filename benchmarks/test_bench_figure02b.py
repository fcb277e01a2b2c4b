"""Benchmark: Figure 2(b) — CDFs of X.509 certificate field sizes."""

from repro.analysis.figures import figure02b


def test_bench_figure02b(benchmark, population):
    certificates = [
        certificate
        for deployment in population.deployments
        if deployment.delivered_chain is not None
        for certificate in deployment.delivered_chain.certificates
    ]
    result = benchmark(figure02b.compute, certificates)
    print()
    print(result.render_text())
    assert result.ordering_by_median()[0] == "Extensions"
