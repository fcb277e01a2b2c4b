"""Figure 13: handshake classification per Tranco rank group.

For each 100k rank group, the share of QUIC services in each handshake class
(at the 1362-byte Initial).  The paper finds the shares mostly stable across
groups, with 1-RTT handshakes noticeably more common only in the top group.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, Sequence, Tuple

from ...quic.handshake import HandshakeClass
from ...scanners.quicreach import HandshakeObservation
from ..dataset import Column, Table

CLASS_ORDER = (
    HandshakeClass.AMPLIFICATION,
    HandshakeClass.MULTI_RTT,
    HandshakeClass.RETRY,
    HandshakeClass.ONE_RTT,
)


@dataclass(frozen=True)
class RankGroupHandshakeClasses:
    """Per-rank-group shares of each handshake class."""

    group_labels: Tuple[str, ...]
    shares: Dict[str, Dict[HandshakeClass, float]]
    group_counts: Dict[str, int]

    def share(self, group_label: str, handshake_class: HandshakeClass) -> float:
        return self.shares.get(group_label, {}).get(handshake_class, 0.0)

    def top_group_label(self) -> str:
        return self.group_labels[0] if self.group_labels else ""

    def one_rtt_share_top_vs_rest(self) -> Tuple[float, float]:
        """The paper's observation: 1-RTT is more common among the top 100k."""
        if not self.group_labels:
            return 0.0, 0.0
        top = self.share(self.group_labels[0], HandshakeClass.ONE_RTT)
        rest = [
            self.share(label, HandshakeClass.ONE_RTT) for label in self.group_labels[1:]
        ]
        return top, (sum(rest) / len(rest) if rest else 0.0)

    def as_table(self) -> Table:
        table = Table(
            [
                Column("rank_group"),
                Column("amplification", ".2%"),
                Column("multi_rtt", ".2%"),
                Column("retry", ".2%"),
                Column("one_rtt", ".2%"),
                Column("services"),
            ]
        )
        for label in self.group_labels:
            table.add_row(
                label,
                self.share(label, HandshakeClass.AMPLIFICATION),
                self.share(label, HandshakeClass.MULTI_RTT),
                self.share(label, HandshakeClass.RETRY),
                self.share(label, HandshakeClass.ONE_RTT),
                self.group_counts.get(label, 0),
            )
        return table

    def render_text(self) -> str:
        return self.as_table().render_text("Figure 13: handshake classification per rank group")


def compute(
    observations: Sequence[HandshakeObservation],
    group_count: int = 10,
) -> RankGroupHandshakeClasses:
    """Per-rank-group class shares of the reachable, classified handshakes."""
    ranks, class_codes = array("q"), bytearray()
    accumulate_series(observations, ranks, class_codes)
    return compute_from_series(ranks, bytes(class_codes), group_count)


#: Stable wire codes for the four reachable handshake classes.
CLASS_CODES: Dict[HandshakeClass, int] = {
    handshake_class: index for index, handshake_class in enumerate(CLASS_ORDER)
}


def accumulate_series(
    observations: Iterable[HandshakeObservation], ranks: array, class_codes: bytearray
) -> None:
    """Append the rank and class code of every reachable, classified
    handshake to the two parallel series, in observation order."""
    for observation in observations:
        if observation.reachable and observation.handshake_class is not None:
            ranks.append(observation.rank)
            class_codes.append(CLASS_CODES[observation.handshake_class])


def compute_from_series(
    ranks: Sequence[int],
    class_codes: bytes,
    group_count: int = 10,
) -> RankGroupHandshakeClasses:
    """Per-rank-group class shares from the :func:`accumulate_series` output.

    ``class_codes`` is parallel to ``ranks``; the pairs may come in any order
    (a population's list need not be rank-sorted).  They are stable-sorted by
    rank before the group windows are bisected — linear on the usual,
    already-ascending input.
    """
    if not ranks:
        return RankGroupHandshakeClasses((), {}, {})
    pairs = sorted(zip(ranks, class_codes), key=itemgetter(0))
    ranks = [rank for rank, _ in pairs]
    class_codes = bytes(code for _, code in pairs)
    max_rank = max(ranks)
    group_size = max(1, math.ceil(max_rank / group_count))

    labels: List[str] = []
    shares: Dict[str, Dict[HandshakeClass, float]] = {}
    counts: Dict[str, int] = {}
    for group_index in range(group_count):
        start = group_index * group_size + 1
        end = (group_index + 1) * group_size + 1
        lo = bisect_left(ranks, start)
        hi = bisect_left(ranks, end)
        if lo == hi:
            continue
        label = f"[{start}, {end})"
        window = class_codes[lo:hi]
        labels.append(label)
        counts[label] = hi - lo
        shares[label] = {
            handshake_class: window.count(CLASS_CODES[handshake_class]) / (hi - lo)
            for handshake_class in CLASS_ORDER
        }
    return RankGroupHandshakeClasses(
        group_labels=tuple(labels), shares=shares, group_counts=counts
    )
