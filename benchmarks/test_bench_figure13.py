"""Benchmark: Figure 13 — handshake classification per rank group."""

from repro.analysis.figures import figure13


def test_bench_figure13(benchmark, shard_scan):
    result = benchmark(figure13.compute, shard_scan.handshakes)
    print()
    print(result.render_text())
    assert len(result.group_labels) >= 5
