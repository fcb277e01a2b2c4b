"""Benchmark: Figure 5 — TLS vs QUIC payload split of multi-RTT handshakes."""

from repro.analysis.figures import figure05


def test_bench_figure05(benchmark, shard_scan):
    result = benchmark(figure05.compute, shard_scan.handshakes)
    print()
    print(result.render_text())
    assert result.share_tls_alone_exceeds > 0.7
