"""Figure 12: QUIC and HTTPS-only deployment shares per Tranco rank group.

The paper splits the list into 100k rank groups and finds deployment rates
stable across popularity: ≈21 % QUIC plus ≈59 % additional HTTPS-only names
per group, with a small standard deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ...webpki.deployment import DomainDeployment, ServiceCategory
from ..dataset import Column, Table


@dataclass(frozen=True)
class RankGroupShares:
    """QUIC / HTTPS-only share per rank group."""

    group_labels: Tuple[str, ...]
    quic_shares: Tuple[float, ...]
    https_only_shares: Tuple[float, ...]
    group_sizes: Tuple[int, ...]

    @property
    def mean_quic_share(self) -> float:
        return sum(self.quic_shares) / len(self.quic_shares) if self.quic_shares else 0.0

    @property
    def quic_share_stddev(self) -> float:
        if not self.quic_shares:
            return 0.0
        mean = self.mean_quic_share
        return math.sqrt(sum((s - mean) ** 2 for s in self.quic_shares) / len(self.quic_shares))

    def as_table(self) -> Table:
        table = Table(
            [
                Column("rank_group"),
                Column("quic_share", ".1%"),
                Column("https_only_share", ".1%"),
                Column("names"),
            ]
        )
        for label, quic, https_only, size in zip(
            self.group_labels, self.quic_shares, self.https_only_shares, self.group_sizes
        ):
            table.add_row(label, quic, https_only, size)
        return table

    def render_text(self) -> str:
        text = self.as_table().render_text("Figure 12: service popularity across rank groups")
        return text + (
            f"\n  mean QUIC share {self.mean_quic_share:.1%}, "
            f"stddev {self.quic_share_stddev * 100:.1f} percentage points"
        )


def compute(
    deployments: Sequence[DomainDeployment],
    group_count: int = 10,
) -> RankGroupShares:
    """Split the population into ``group_count`` equal rank groups."""
    return compute_from_category_runs(category_runs(deployments), group_count)


#: Stable wire codes for :class:`ServiceCategory` in streaming reductions.
CATEGORY_CODES: Dict[ServiceCategory, int] = {
    category: index for index, category in enumerate(ServiceCategory)
}


def rank_runs(ranks: Sequence[int], codes: bytes) -> Tuple[Tuple[int, bytes], ...]:
    """Cut one shard's per-deployment ``codes`` into rank-contiguous runs.

    A generated shard is one run.  Hand-assembled populations (subsets,
    reorderings) may skip or repeat ranks, and each break starts a new run,
    so :func:`compute_from_category_runs` still counts every deployment in
    the rank group it belongs to.
    """
    runs: List[Tuple[int, bytes]] = []
    start = 0
    for position in range(1, len(ranks)):
        if ranks[position] != ranks[position - 1] + 1:
            runs.append((ranks[start], codes[start:position]))
            start = position
    if ranks:
        runs.append((ranks[start], codes[start:]))
    return tuple(runs)


def category_runs(deployments: Sequence[DomainDeployment]) -> Tuple[Tuple[int, bytes], ...]:
    """The :func:`rank_runs` of some deployments, in their given order."""
    return rank_runs(
        [deployment.rank for deployment in deployments],
        bytes(CATEGORY_CODES[deployment.category] for deployment in deployments),
    )


def compute_from_category_runs(
    runs: Sequence[Tuple[int, bytes]],
    group_count: int = 10,
) -> RankGroupShares:
    """Rank-group shares from category runs.

    ``runs`` are rank-contiguous ``(start_rank, category_codes)`` byte strings
    (:func:`rank_runs`, in shard order), one code per deployment — the shape
    shard workers ship instead of the deployments themselves.
    """
    if not runs or all(not codes for _, codes in runs):
        return RankGroupShares((), (), (), ())
    max_rank = max(start + len(codes) - 1 for start, codes in runs if codes)
    group_size = max(1, math.ceil(max_rank / group_count))
    quic_code = CATEGORY_CODES[ServiceCategory.QUIC]
    https_only_code = CATEGORY_CODES[ServiceCategory.HTTPS_ONLY]

    labels: List[str] = []
    quic_shares: List[float] = []
    https_shares: List[float] = []
    sizes: List[int] = []
    for group_index in range(group_count):
        start = group_index * group_size + 1
        end = (group_index + 1) * group_size + 1
        members = quic = https_only = 0
        for run_start, codes in runs:
            lo = max(start, run_start) - run_start
            hi = min(end, run_start + len(codes)) - run_start
            if hi <= lo:
                continue
            window = codes[lo:hi]
            members += len(window)
            quic += window.count(quic_code)
            https_only += window.count(https_only_code)
        if not members:
            continue
        labels.append(f"[{start}, {end})")
        sizes.append(members)
        quic_shares.append(quic / members)
        https_shares.append(https_only / members)
    return RankGroupShares(
        group_labels=tuple(labels),
        quic_shares=tuple(quic_shares),
        https_only_shares=tuple(https_shares),
        group_sizes=tuple(sizes),
    )
