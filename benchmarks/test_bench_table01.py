"""Benchmark: Table 1 — browser Initial sizes and certificate-compression support."""

from repro.analysis.figures import table01
from repro.tls.cert_compression import CertificateCompressionAlgorithm


def test_bench_table01(benchmark, shard_scan):
    result = benchmark(table01.compute, shard_scan.compression)
    print()
    print(result.render_text())
    assert result.support_shares[CertificateCompressionAlgorithm.BROTLI] > 0.85
