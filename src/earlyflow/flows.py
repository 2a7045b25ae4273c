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

from .pcap import PacketRecord, Transport, ip_to_int

# Capture files are near-sorted; reordering beyond this is an input error
# because silently accepting it would corrupt inter-arrival times.
ORDER_TOLERANCE_SECS = 1e-3


class FlowKeyError(Exception):
    """Packet has no session key (transport is not TCP/UDP)."""


class OrderingError(Exception):
    """Timestamps went backwards beyond the allowed tolerance."""


class LabelRuleError(Exception):
    """Malformed label rule file."""


def canonical_key(record: PacketRecord):
    """Canonical (endpoint_a, endpoint_b, transport) with endpoints sorted so
    both directions of a conversation share the key. The window index that
    completes a FlowKey is assigned by the table when a flow is created, not
    derived from the packet."""
    if record.transport is Transport.OTHER:
        raise FlowKeyError("no session key for transport OTHER")
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
        self.packets_accepted = 0

    def assign_packet(self, record: PacketRecord) -> Flow:
        """Add one packet; returns the flow it joined (possibly new)."""
        if record.timestamp < self._high_water - ORDER_TOLERANCE_SECS:
            raise OrderingError(
                f"packet at {record.timestamp:.6f} arrived after {self._high_water:.6f}")
        self._high_water = max(self._high_water, record.timestamp)
        ckey = canonical_key(record)
        flow = self._open.get(ckey)
        if flow is not None and record.timestamp - flow.start_ts > self.window_secs:
            self._finished.append(flow)
            flow = None
        if flow is None:
            index = self._window_counts.get(ckey, 0)
            self._window_counts[ckey] = index + 1
            flow = Flow(
                key=FlowKey(ckey[0], ckey[1], ckey[2], index),
                initiator=(record.src_ip, record.src_port),
            )
            self._open[ckey] = flow
        flow._insert(record)
        self.packets_accepted += 1
        return flow

    def flush(self, horizon_ts: float = math.inf) -> list:
        """Emit (and drop) every flow whose window closed before horizon_ts,
        ordered by start time. An infinite horizon drains everything."""
        out = []
        kept = []
        for flow in self._finished:
            (out if flow.start_ts + self.window_secs < horizon_ts else kept).append(flow)
        self._finished = kept
        for ckey in list(self._open):
            flow = self._open[ckey]
            if flow.start_ts + self.window_secs < horizon_ts:
                out.append(flow)
                del self._open[ckey]
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


def _endpoint_matches(rule_ip, rule_port, endpoint) -> bool:
    ip, port = endpoint
    return (rule_ip is None or rule_ip == ip) and (rule_port is None or rule_port == port)


def _rule_matches(rule: LabelRule, flow: Flow) -> bool:
    if rule.start_ts > flow.end_ts or flow.start_ts > rule.end_ts:
        return False
    fwd = (_endpoint_matches(rule.src_ip, rule.src_port, flow.initiator)
           and _endpoint_matches(rule.dst_ip, rule.dst_port, flow.responder))
    rev = (_endpoint_matches(rule.src_ip, rule.src_port, flow.responder)
           and _endpoint_matches(rule.dst_ip, rule.dst_port, flow.initiator))
    return fwd or rev


def join_labels(flows, rules) -> list:
    """Label each flow with the first matching rule (file order); flows no
    rule matches become BENIGN. Rules match in either endpoint orientation."""
    for flow in flows:
        flow.label = "BENIGN"
        for rule in rules:
            if _rule_matches(rule, flow):
                flow.label = rule.label
                break
    return flows
