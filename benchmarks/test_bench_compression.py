"""Benchmark: the §4.2 certificate-compression experiment (synthetic + wild)."""

from repro.analysis.figures import compression


def test_bench_compression(benchmark, population, shard_scan):
    result = benchmark(
        compression.compute,
        population.quic_services(),
        shard_scan.compression,
    )
    print()
    print(result.render_text())
    assert result.share_below_limit_compressed > 0.95
    assert 0.5 < result.median_synthetic_rate < 0.85
