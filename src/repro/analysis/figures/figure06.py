"""Figure 6: certificate chain size distributions by QUIC support.

CDFs of delivered-chain sizes for QUIC services versus HTTPS-only services.
The paper reports medians of 2329 bytes (QUIC) and 4022 bytes (HTTPS-only), a
long tail between 18 kB and 38 kB, and 35 % of all chains exceeding the larger
common amplification limit of 3×1357 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from ...core.limits import LARGER_COMMON_LIMIT
from ...webpki.deployment import DomainDeployment
from ..cdf import EmpiricalCdf


@dataclass(frozen=True)
class ChainSizeDistributions:
    """The two CDFs plus the headline shares."""

    quic_cdf: EmpiricalCdf
    https_only_cdf: EmpiricalCdf
    limit_bytes: int

    @property
    def quic_median(self) -> float:
        return self.quic_cdf.median

    @property
    def https_only_median(self) -> float:
        return self.https_only_cdf.median

    @property
    def share_exceeding_limit(self) -> float:
        """Share of *all* chains above the larger common amplification limit."""
        total = len(self.quic_cdf) + len(self.https_only_cdf)
        if total == 0:
            return 0.0
        exceeding = (
            len(self.quic_cdf) * (1 - self.quic_cdf.probability_at(self.limit_bytes))
            + len(self.https_only_cdf) * (1 - self.https_only_cdf.probability_at(self.limit_bytes))
        )
        return exceeding / total

    @property
    def quic_maximum(self) -> float:
        return self.quic_cdf.quantile(1.0) if not self.quic_cdf.is_empty else 0.0

    @property
    def https_only_maximum(self) -> float:
        return self.https_only_cdf.quantile(1.0) if not self.https_only_cdf.is_empty else 0.0

    def render_text(self) -> str:
        return (
            "Figure 6: certificate chain sizes by QUIC support\n"
            f"  QUIC services      (n={len(self.quic_cdf)}): median={self.quic_median:,.0f} B, "
            f"max={self.quic_maximum:,.0f} B\n"
            f"  HTTPS-only services(n={len(self.https_only_cdf)}): median={self.https_only_median:,.0f} B, "
            f"max={self.https_only_maximum:,.0f} B\n"
            f"  share of all chains above {self.limit_bytes} B: {self.share_exceeding_limit:.1%}"
        )


def compute(
    quic_deployments: Sequence[DomainDeployment],
    https_only_deployments: Sequence[DomainDeployment],
    limit_bytes: int = LARGER_COMMON_LIMIT,
) -> ChainSizeDistributions:
    return compute_from_counts(
        *accumulate_chain_sizes(quic_deployments, https_only_deployments), limit_bytes
    )


def accumulate_chain_sizes(
    quic_deployments: Iterable[DomainDeployment],
    https_only_deployments: Iterable[DomainDeployment],
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """``size -> multiplicity`` maps of the QUIC services' delivered chains
    and the HTTPS-only services' HTTPS chains."""
    quic_counts: Dict[int, int] = {}
    for deployment in quic_deployments:
        chain = deployment.delivered_chain
        if chain is not None:
            quic_counts[chain.total_size] = quic_counts.get(chain.total_size, 0) + 1
    https_counts: Dict[int, int] = {}
    for deployment in https_only_deployments:
        chain = deployment.https_chain
        if chain is not None:
            https_counts[chain.total_size] = https_counts.get(chain.total_size, 0) + 1
    return quic_counts, https_counts


def compute_from_counts(
    quic_size_counts: Mapping[int, int],
    https_only_size_counts: Mapping[int, int],
    limit_bytes: int = LARGER_COMMON_LIMIT,
) -> ChainSizeDistributions:
    """The two CDFs from merged chain-size accumulators."""
    return ChainSizeDistributions(
        quic_cdf=EmpiricalCdf.from_counts(quic_size_counts),
        https_only_cdf=EmpiricalCdf.from_counts(https_only_size_counts),
        limit_bytes=limit_bytes,
    )
