"""Prefix extraction and earliness accounting.

Earliness is the fraction of packets consumed before deciding; duration
earliness is the fraction of the flow's wall-clock duration consumed. The two
are reported jointly as a pair and never collapsed into one number. A prefix
is taken either by packet count or by elapsed duration; a duration prefix
always includes the first packet, and the prefix's own duration is the
relative timestamp of its last included row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import MtsSample

BY_COUNT = "packets"
BY_DURATION = "duration"


@dataclass(frozen=True)
class PrefixSpec:
    mode: str
    packet_count: int | None = None
    duration_secs: float | None = None

    def __post_init__(self):
        if self.mode == BY_COUNT:
            if self.packet_count is None or self.packet_count < 1:
                raise ValueError("packet-count prefix needs a count >= 1")
        elif self.mode == BY_DURATION:
            if self.duration_secs is None or not self.duration_secs >= 0:
                raise ValueError("duration prefix needs a non-negative duration")
        else:
            raise ValueError(f"unknown prefix mode {self.mode!r}")

    @classmethod
    def by_count(cls, count: int) -> "PrefixSpec":
        return cls(mode=BY_COUNT, packet_count=int(count))

    @classmethod
    def by_duration(cls, secs: float) -> "PrefixSpec":
        return cls(mode=BY_DURATION, duration_secs=float(secs))

    def describe(self) -> str:
        if self.mode == BY_COUNT:
            return str(self.packet_count)
        return f"{self.duration_secs:g}"


@dataclass(frozen=True)
class EarlinessReport:
    earliness: float          # packets used / total packets, in (0, 1]
    duration_earliness: float  # duration used / flow duration, in [0, 1]
    packets_used: int
    duration_used: float

    @property
    def flow_earliness(self) -> tuple:
        """The joint pair; consumers must keep both components."""
        return (self.earliness, self.duration_earliness)


def take_prefix(sample: MtsSample, spec: PrefixSpec):
    """Return (prefix sample, earliness report). Count prefixes clamp to the
    sample length; duration prefixes keep rows with rel_ts <= t and always at
    least the first row."""
    total = sample.length
    rel = sample.timestamps - sample.timestamps[0]
    if spec.mode == BY_COUNT:
        used = min(spec.packet_count, total)
    else:
        used = int(np.searchsorted(rel, spec.duration_secs, side="right"))
        used = max(used, 1)
    prefix = MtsSample(
        flow_id=sample.flow_id,
        values=sample.values[:used],
        timestamps=sample.timestamps[:used],
        label=sample.label,
        endpoints=sample.endpoints,
    )
    duration_used = float(rel[used - 1])
    total_duration = float(rel[-1])
    de = duration_used / total_duration if total_duration > 0 else 0.0
    return prefix, EarlinessReport(
        earliness=used / total,
        duration_earliness=de,
        packets_used=used,
        duration_used=duration_used,
    )


def aggregate_earliness(reports) -> tuple:
    """Arithmetic means of (earliness, duration earliness) across reports."""
    reports = list(reports)
    if not reports:
        raise ValueError("no earliness reports to aggregate")
    e = sum(r.earliness for r in reports) / len(reports)
    de = sum(r.duration_earliness for r in reports) / len(reports)
    return (e, de)
