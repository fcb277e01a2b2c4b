"""The synthetic certificate-compression study of §4.2 ("Compression helps").

The paper compresses every collected certificate chain and reports (i) the
median compression rate (≈65 %) and (ii) the share of chains whose compressed
size stays below the common anti-amplification limit (≈99 %), which would turn
multi-RTT handshakes back into 1-RTT handshakes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from ..tls.cert_compression import (
    CertificateCompressionAlgorithm,
    CompressionResult,
    compress_certificate_chain,
)
from ..x509.chain import CertificateChain
from .limits import LARGER_COMMON_LIMIT


@dataclass(frozen=True)
class CompressionStudyResult:
    """Aggregate outcome of compressing a set of chains with one algorithm."""

    algorithm: CertificateCompressionAlgorithm
    chain_count: int
    median_compression_rate: float
    mean_compression_rate: float
    share_below_limit_uncompressed: float
    share_below_limit_compressed: float
    limit_bytes: int

    @property
    def share_rescued(self) -> float:
        """Chains that only fit under the limit thanks to compression."""
        return self.share_below_limit_compressed - self.share_below_limit_uncompressed

    def as_dict(self) -> Dict[str, float]:
        return {
            "algorithm": self.algorithm.label,
            "chains": self.chain_count,
            "median_rate": self.median_compression_rate,
            "mean_rate": self.mean_compression_rate,
            "below_limit_uncompressed": self.share_below_limit_uncompressed,
            "below_limit_compressed": self.share_below_limit_compressed,
            "limit_bytes": self.limit_bytes,
        }


def _median(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def run_compression_study(
    chains: Iterable[CertificateChain],
    algorithm: CertificateCompressionAlgorithm = CertificateCompressionAlgorithm.BROTLI,
    limit_bytes: int = LARGER_COMMON_LIMIT,
) -> CompressionStudyResult:
    """Compress every chain and summarise rates and limit compliance."""
    return study_from_reduction(
        algorithm, *compress_chains(chains, algorithm, limit_bytes), limit_bytes
    )


def compress_chains(
    chains: Iterable[CertificateChain],
    algorithm: CertificateCompressionAlgorithm,
    limit_bytes: int,
) -> Tuple[array, int, int, int]:
    """Compress every chain: its rates in chain order, how many chains fit
    ``limit_bytes`` uncompressed and compressed, and the chain count."""
    rates = array("d")
    below_uncompressed = below_compressed = 0
    for chain in chains:
        result: CompressionResult = compress_certificate_chain(
            [cert.der for cert in chain], algorithm
        )
        rates.append(result.ratio)
        if result.uncompressed_size <= limit_bytes:
            below_uncompressed += 1
        if result.compressed_size <= limit_bytes:
            below_compressed += 1
    return rates, below_uncompressed, below_compressed, len(rates)


def run_all_algorithms(
    chains: Sequence[CertificateChain],
    limit_bytes: int = LARGER_COMMON_LIMIT,
) -> Dict[CertificateCompressionAlgorithm, CompressionStudyResult]:
    """Run the study once per RFC 8879 algorithm (the Table 1 "Rate" column)."""
    return {
        algorithm: run_compression_study(chains, algorithm, limit_bytes)
        for algorithm in CertificateCompressionAlgorithm
    }


def study_from_reduction(
    algorithm: CertificateCompressionAlgorithm,
    rates: Sequence[float],
    below_limit_uncompressed: int,
    below_limit_compressed: int,
    chain_count: int,
    limit_bytes: int = LARGER_COMMON_LIMIT,
) -> CompressionStudyResult:
    """The study summary from :func:`compress_chains` output.

    ``rates`` must be in chain (= shard concatenation) order so the mean is
    one left-to-right float sum whatever the sharding.
    """
    if chain_count == 0:
        return CompressionStudyResult(algorithm, 0, 0.0, 0.0, 0.0, 0.0, limit_bytes)
    ordered_rates = list(rates)
    return CompressionStudyResult(
        algorithm=algorithm,
        chain_count=chain_count,
        median_compression_rate=_median(ordered_rates),
        mean_compression_rate=sum(ordered_rates) / chain_count,
        share_below_limit_uncompressed=below_limit_uncompressed / chain_count,
        share_below_limit_compressed=below_limit_compressed / chain_count,
        limit_bytes=limit_bytes,
    )
