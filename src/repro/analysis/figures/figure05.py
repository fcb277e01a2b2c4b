"""Figure 5: payload exchanged during multi-RTT handshakes.

For every multi-RTT handshake, the received traffic is split into TLS payload
and remaining QUIC bytes (headers, padding, AEAD overhead) and plotted against
the 3× limit.  The paper finds that in 87 % of multi-RTT handshakes the TLS
bytes alone already exceed the limit, and that superfluous QUIC padding can
contribute thousands of bytes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from ...quic.handshake import HandshakeClass
from ...scanners.quicreach import HandshakeObservation


@dataclass(frozen=True)
class MultiRttPayloadFigure:
    """Ranked series of (TLS bytes, total bytes, limit) for multi-RTT handshakes."""

    #: Sorted ascending by total received bytes, mirroring the paper's x-axis.
    entries: Tuple[Tuple[int, int, int], ...]  # (tls_bytes, total_bytes, limit_bytes)
    share_tls_alone_exceeds: float
    max_quic_overhead: int

    @property
    def handshake_count(self) -> int:
        return len(self.entries)

    def render_text(self) -> str:
        lines = [
            f"Figure 5: payload split of {self.handshake_count} multi-RTT handshakes",
            f"  TLS bytes alone exceed the 3x limit in {self.share_tls_alone_exceeds:.1%} of cases",
            f"  largest remaining-QUIC-bytes contribution: {self.max_quic_overhead} bytes",
        ]
        if self.entries:
            mid = self.entries[len(self.entries) // 2]
            lines.append(
                f"  median handshake: TLS={mid[0]} B, total={mid[1]} B, limit={mid[2]} B"
            )
        return "\n".join(lines)


def compute(observations: Sequence[HandshakeObservation]) -> MultiRttPayloadFigure:
    """Aggregate multi-RTT observations into the Figure 5 series."""
    tls, total, limit = array("q"), array("q"), array("q")
    exceeds, max_overhead = accumulate_rows(observations, tls, total, limit)
    return compute_from_rows(tuple(zip(tls, total, limit)), exceeds, max_overhead)


def accumulate_rows(
    observations: Iterable[HandshakeObservation], tls: array, total: array, limit: array
) -> Tuple[int, int]:
    """Append one ``(tls_bytes, total_bytes, limit_bytes)`` row per reachable
    multi-RTT handshake to the three parallel arrays, in observation order.

    Returns how many of those rows have TLS bytes alone above the limit, and
    the largest remaining-QUIC-bytes contribution (0 when there is none).
    """
    exceeds = max_overhead = 0
    for observation in observations:
        if not observation.reachable:
            continue
        if observation.handshake_class is not HandshakeClass.MULTI_RTT:
            continue
        row_limit = 3 * observation.initial_size
        tls.append(observation.tls_payload_bytes)
        total.append(observation.total_bytes)
        limit.append(row_limit)
        if observation.tls_payload_bytes > row_limit:
            exceeds += 1
        if observation.quic_overhead_bytes > max_overhead:
            max_overhead = observation.quic_overhead_bytes
    return exceeds, max_overhead


def compute_from_rows(
    rows: Sequence[Tuple[int, int, int]],
    exceeds_count: int,
    max_overhead: int,
) -> MultiRttPayloadFigure:
    """The figure from :func:`accumulate_rows` output.

    ``rows`` are the per-multi-RTT-handshake ``(tls_bytes, total_bytes,
    limit_bytes)`` triples in observation (= shard concatenation) order; the
    stable sort by total bytes breaks ties by that order.
    """
    entries = tuple(sorted(rows, key=lambda row: row[1]))
    exceeds = exceeds_count / len(rows) if rows else 0.0
    return MultiRttPayloadFigure(
        entries=entries,
        share_tls_alone_exceeds=exceeds,
        max_quic_overhead=max_overhead,
    )
