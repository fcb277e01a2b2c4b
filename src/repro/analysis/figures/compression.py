"""§4.2 "Compression helps": the synthetic certificate-compression experiment.

Combines the synthetic study (compress every collected chain) with the
in-the-wild observations from the compression scanner, mirroring the paper's
comparison of a ≈65 % median synthetic rate with a ≈73 % mean rate measured
against real deployments.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from ...core.compression_study import (
    CompressionStudyResult,
    compress_chains,
    study_from_reduction,
)
from ...core.limits import LARGER_COMMON_LIMIT
from ...scanners.compression_scanner import CompressionObservation
from ...tls.cert_compression import CertificateCompressionAlgorithm
from ...webpki.deployment import DomainDeployment
from . import table01


@dataclass(frozen=True)
class CompressionExperiment:
    """Synthetic study plus wild measurements."""

    synthetic: CompressionStudyResult
    wild_mean_rate: Optional[float]
    wild_support_share: float
    limit_bytes: int

    @property
    def median_synthetic_rate(self) -> float:
        return self.synthetic.median_compression_rate

    @property
    def share_below_limit_compressed(self) -> float:
        return self.synthetic.share_below_limit_compressed

    def render_text(self) -> str:
        wild = f"{self.wild_mean_rate:.0%}" if self.wild_mean_rate is not None else "n/a"
        return (
            "Compression experiment (§4.2)\n"
            f"  synthetic median rate: {self.median_synthetic_rate:.0%} over "
            f"{self.synthetic.chain_count} chains\n"
            f"  chains below {self.limit_bytes} B uncompressed: "
            f"{self.synthetic.share_below_limit_uncompressed:.1%}\n"
            f"  chains below {self.limit_bytes} B compressed:   "
            f"{self.synthetic.share_below_limit_compressed:.1%}\n"
            f"  mean rate measured in the wild (brotli): {wild}\n"
            f"  services supporting brotli: {self.wild_support_share:.1%}"
        )


def compute(
    deployments: Sequence[DomainDeployment],
    observations: Sequence[CompressionObservation],
    algorithm: CertificateCompressionAlgorithm = CertificateCompressionAlgorithm.BROTLI,
    limit_bytes: int = LARGER_COMMON_LIMIT,
) -> CompressionExperiment:
    support_counts, wild_rates, _ = table01.accumulate_observations(observations)
    return compute_from_reduction(
        *accumulate_synthetic(deployments, algorithm, limit_bytes),
        wild_rates[algorithm],
        support_counts[algorithm],
        len(observations),
        algorithm,
        limit_bytes,
    )


def accumulate_synthetic(
    deployments: Iterable[DomainDeployment],
    algorithm: CertificateCompressionAlgorithm,
    limit_bytes: int,
) -> Tuple[array, int, int, int]:
    """The synthetic study's fold over the deployments' delivered chains:
    rates in deployment order, chains below the limit uncompressed and
    compressed, and the chain count."""
    return compress_chains(
        (d.delivered_chain for d in deployments if d.delivered_chain is not None),
        algorithm,
        limit_bytes,
    )


def compute_from_reduction(
    synthetic_rates: Sequence[float],
    synthetic_below_limit_uncompressed: int,
    synthetic_below_limit_compressed: int,
    synthetic_chain_count: int,
    wild_rates: Sequence[float],
    wild_support_count: int,
    scanned_services: int,
    algorithm: CertificateCompressionAlgorithm = CertificateCompressionAlgorithm.BROTLI,
    limit_bytes: int = LARGER_COMMON_LIMIT,
) -> CompressionExperiment:
    """The experiment from the synthetic fold plus the wild measurements."""
    synthetic = study_from_reduction(
        algorithm,
        synthetic_rates,
        synthetic_below_limit_uncompressed,
        synthetic_below_limit_compressed,
        synthetic_chain_count,
        limit_bytes,
    )
    ordered_wild = list(wild_rates)
    wild_rate = sum(ordered_wild) / len(ordered_wild) if ordered_wild else None
    support = wild_support_count / scanned_services if scanned_services else 0.0
    return CompressionExperiment(
        synthetic=synthetic,
        wild_mean_rate=wild_rate,
        wild_support_share=support,
        limit_bytes=limit_bytes,
    )
