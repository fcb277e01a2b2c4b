"""Benchmark: Table 2 — crypto algorithms and key lengths in use."""

from repro.analysis.figures import table02


def test_bench_table02(benchmark, population):
    result = benchmark(
        table02.compute,
        population.quic_services(),
        population.https_only_services(),
    )
    print()
    print(result.render_text())
    assert result.ecdsa_share("QUIC", "Leaf") > result.ecdsa_share("HTTPS-only", "Leaf")
