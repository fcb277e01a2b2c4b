"""Benchmark: Figure 4 — first-RTT amplification factors of complete handshakes."""

from repro.analysis.figures import figure04


def test_bench_figure04(benchmark, shard_scan):
    result = benchmark(figure04.compute, shard_scan.handshakes)
    print()
    print(result.render_text())
    assert 3.0 < result.median < 6.0
