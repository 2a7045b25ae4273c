"""Grouping packets into flows by canonical session key and time window.

A flow is the set of packets sharing a canonical 5-tuple inside one window.
Windows are active timeouts anchored at the flow's first packet: a packet
within window_secs of the anchor joins the flow (boundary inclusive),
otherwise the open flow is closed and a new window starts. FIN/RST do not
terminate flows. Both directions of a conversation map to the same key; the
endpoint of the first packet seen is the initiator and gets direction +1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .pcap import PacketRecord, Transport, ip_to_int

# Capture files are near-sorted; reordering beyond this is an input error
# because silently accepting it would corrupt inter-arrival times.
ORDER_TOLERANCE_SECS = 1e-3


class OrderingError(Exception):
    """Timestamps went backwards beyond the allowed tolerance."""


class LabelRuleError(Exception):
    """Malformed label rule file."""


def canonical_key(record: PacketRecord):
    """Canonical (endpoint_a, endpoint_b, transport) with endpoints sorted so
    both directions of a conversation share the key. The window index that
    completes a FlowKey is assigned by the table when a flow is created, not
    derived from the packet."""
    a = (record.src_ip, record.src_port)
    b = (record.dst_ip, record.dst_port)
    if b < a:
        a, b = b, a
    return (a, b, record.transport)


@dataclass(frozen=True)
class FlowKey:
    endpoint_a: tuple
    endpoint_b: tuple
    transport: Transport
    window_index: int


@dataclass
class Flow:
    key: FlowKey
    initiator: tuple
    packets: list = field(default_factory=list)
    label: str | None = None

    @property
    def start_ts(self) -> float:
        return self.packets[0].timestamp

    @property
    def end_ts(self) -> float:
        return self.packets[-1].timestamp

    @property
    def responder(self) -> tuple:
        if self.initiator == self.key.endpoint_a:
            return self.key.endpoint_b
        return self.key.endpoint_a

    @property
    def directions(self) -> list:
        """+1 for each packet the initiator sent, -1 for each the responder sent."""
        return [1 if (p.src_ip, p.src_port) == self.initiator else -1 for p in self.packets]

    def _insert(self, record: PacketRecord):
        # tolerated jitter: place a straggler by timestamp, after ties
        pos = len(self.packets)
        while pos > 0 and self.packets[pos - 1].timestamp > record.timestamp:
            pos -= 1
        self.packets.insert(pos, record)
        if pos == 0:
            # the straggler now opens the flow: it defines the initiator
            self.initiator = (record.src_ip, record.src_port)


def flow_order(flow: Flow):
    """Sort key of emitted flows: start time, then the flow key."""
    return (flow.start_ts, flow.key.endpoint_a, flow.key.endpoint_b,
            flow.key.transport.value, flow.key.window_index)


class FlowTable:
    """Single-writer flow assembly over one time-ordered packet stream."""

    def __init__(self, window_secs: float = 120.0):
        if not window_secs > 0:
            raise ValueError("window_secs must be positive")
        self.window_secs = float(window_secs)
        self._open: dict = {}
        self._finished: list = []
        self._window_counts: dict = {}
        self._high_water = -math.inf

    def assign_packet(self, record: PacketRecord) -> Flow:
        """Add one packet; returns the flow it joined (possibly new)."""
        ts = record.timestamp
        if ts < self._high_water - ORDER_TOLERANCE_SECS:
            raise OrderingError(f"packet at {ts:.6f} arrived after {self._high_water:.6f}")
        if ts > self._high_water:
            self._high_water = ts
        ckey = canonical_key(record)
        flow = self._open.get(ckey)
        if flow is not None and ts - flow.packets[0].timestamp > self.window_secs:
            self._finished.append(flow)
            flow = None
        if flow is None:
            index = self._window_counts.get(ckey, 0)
            self._window_counts[ckey] = index + 1
            flow = Flow(FlowKey(*ckey, index), (record.src_ip, record.src_port), [record])
            self._open[ckey] = flow
        elif flow.packets[-1].timestamp > ts:
            flow._insert(record)
        else:
            flow.packets.append(record)
        return flow

    def flush(self) -> list:
        """Emit and drop every flow, closed or open, in flow_order."""
        out = self._finished + list(self._open.values())
        self._finished = []
        self._open = {}
        out.sort(key=flow_order)
        return out


@dataclass(frozen=True)
class LabelRule:
    """One row of a rules file; None fields are wildcards."""
    src_ip: int | None
    src_port: int | None
    dst_ip: int | None
    dst_port: int | None
    start_ts: float
    end_ts: float
    label: str


RULE_HEADER = ["src_ip", "src_port", "dst_ip", "dst_port", "start_ts", "end_ts", "label"]


def _parse_wild(value: str, parse):
    value = value.strip()
    if value == "*":
        return None
    return parse(value)


def load_label_rules(path) -> list:
    rules = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != RULE_HEADER:
                raise LabelRuleError(f"{path}: expected header {','.join(RULE_HEADER)}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 7:
                    raise LabelRuleError(f"{path}:{lineno}: expected 7 columns")
                rules.append(LabelRule(
                    src_ip=_parse_wild(row[0], ip_to_int),
                    src_port=_parse_wild(row[1], int),
                    dst_ip=_parse_wild(row[2], ip_to_int),
                    dst_port=_parse_wild(row[3], int),
                    start_ts=float(row[4]),
                    end_ts=float(row[5]),
                    label=row[6].strip(),
                ))
    except (ValueError, KeyError) as exc:
        raise LabelRuleError(f"{path}: bad rule value: {exc}") from exc
    return rules


def join_labels(flows, rules) -> list:
    """Label each flow with the first matching rule (file order); flows no
    rule matches become BENIGN. A rule matches a flow whose [start, end]
    overlaps its own (bounds inclusive) and whose endpoints fit its source
    and destination in either orientation; None fields are wildcards.

    One numpy mask per rule over all flows. Addresses are 128-bit, so they
    are compared through small integer codes, not as int64."""
    codes = {}

    def columns(endpoints):
        ips = np.array([codes.setdefault(ip, len(codes)) for ip, _ in endpoints], dtype=np.int64)
        ports = np.array([port for _, port in endpoints], dtype=np.int64)
        return ips, ports

    initiator = columns([flow.initiator for flow in flows])
    responder = columns([flow.responder for flow in flows])
    start = np.array([flow.start_ts for flow in flows], dtype=np.float64)
    end = np.array([flow.end_ts for flow in flows], dtype=np.float64)

    def fits(rule_ip, rule_port, endpoint):
        ips, ports = endpoint
        mask = np.ones(len(ips), dtype=bool)
        if rule_ip is not None:
            mask &= ips == codes.get(rule_ip, -1)
        if rule_port is not None:
            mask &= ports == rule_port
        return mask

    matched = np.full(len(start), -1)
    for i, rule in enumerate(rules):
        hit = ~((rule.start_ts > end) | (start > rule.end_ts)) & (matched < 0)
        hit &= ((fits(rule.src_ip, rule.src_port, initiator)
                 & fits(rule.dst_ip, rule.dst_port, responder))
                | (fits(rule.src_ip, rule.src_port, responder)
                   & fits(rule.dst_ip, rule.dst_port, initiator)))
        matched[hit] = i
    for flow, i in zip(flows, matched.tolist()):
        flow.label = rules[i].label if i >= 0 else "BENIGN"
    return flows
