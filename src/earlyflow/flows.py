"""Grouping packets into flows by canonical session key and time window.

A flow is the set of packets sharing a canonical 5-tuple inside one window.
Both directions of a conversation map to the same key. Within a key,
packets are taken in timestamp order (ties in arrival order); windows are
active timeouts anchored at each window's first packet: a packet with
ts - first_ts_of_window <= window_secs joins the window (boundary
inclusive), and the next packet opens a new one. FIN/RST do not terminate
flows. The sender of a flow's first packet is its initiator and gets
direction +1.

FlowTable works on numpy columns (pcap.PacketBlock) and never builds an
object per packet. assign_block stores a block after checking its order;
flush joins the blocks column by column and assigns every flow at once: one
lexicographic compare orders each packet's endpoints into its key, one
stable lexsort orders the packets by key, then timestamp, then arrival, and
a binary search per window, run for all keys together, finds where each
window ends. A Flow is a run of rows of the sorted columns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .pcap import PacketBlock, PacketRecord, Transport, ips_from_words, ip_to_int

# Capture files are near-sorted; reordering beyond this is an input error
# because silently accepting it would corrupt inter-arrival times.
ORDER_TOLERANCE_SECS = 1e-3


class OrderingError(Exception):
    """Timestamps went backwards beyond the allowed tolerance."""


class LabelRuleError(Exception):
    """Malformed label rule file."""


@dataclass(frozen=True)
class FlowKey:
    endpoint_a: tuple
    endpoint_b: tuple
    transport: Transport
    window_index: int


@dataclass(eq=False)
class Flow:
    """Rows first..stop-1 of `block`, the packets of the flushed table
    sorted by key and time; the flow's packets in timestamp order."""

    key: FlowKey
    initiator: tuple
    start_ts: float
    end_ts: float
    block: PacketBlock
    first: int
    stop: int
    label: str | None = None

    @property
    def packets(self) -> list:
        """The flow's packets as PacketRecords."""
        return self.block.take(slice(self.first, self.stop)).records()

    @property
    def responder(self) -> tuple:
        if self.initiator == self.key.endpoint_a:
            return self.key.endpoint_b
        return self.key.endpoint_a

    @property
    def directions(self) -> list:
        """+1 for each packet the initiator sent, -1 for each the responder sent."""
        return [1 if (p.src_ip, p.src_port) == self.initiator else -1 for p in self.packets]


def flow_order(flow: Flow):
    """Sort key of emitted flows: start time, then the flow key."""
    return (flow.start_ts, flow.key.endpoint_a, flow.key.endpoint_b,
            flow.key.transport.value, flow.key.window_index)


def flow_packets(flows):
    """(packets, first, stop): one PacketBlock holding the packets of every
    flow, and int64 columns placing flow k at rows first[k]..stop[k]-1 of
    it. The rows stay where flush left them, in key order: a lone table's
    block is used as it is, and the blocks of several tables are
    concatenated once."""
    offsets = {}        # id of a flushed table's block -> its first row below
    blocks, firsts, stops = [], [], []
    rows = 0
    for flow in flows:
        offset = offsets.get(id(flow.block))
        if offset is None:
            offset = offsets[id(flow.block)] = rows
            blocks.append(flow.block)
            rows += len(flow.block.timestamp)
        firsts.append(offset + flow.first)
        stops.append(offset + flow.stop)
    return (PacketBlock.concat(blocks), np.array(firsts, dtype=np.int64),
            np.array(stops, dtype=np.int64))


class FlowTable:
    """Single-writer flow assembly over one time-ordered packet stream."""

    def __init__(self, window_secs: float = 120.0):
        if not window_secs > 0:
            raise ValueError("window_secs must be positive")
        self.window_secs = float(window_secs)
        self._blocks: list = []
        self._high_water = -math.inf

    def assign_block(self, block: PacketBlock):
        """Add a block of packets that follow every packet added so far.
        Raises OrderingError, adding none of the block, at its first packet
        more than ORDER_TOLERANCE_SECS earlier than the latest before it."""
        ts = block.timestamp
        if not len(ts):
            return
        latest = np.maximum.accumulate(np.concatenate(([self._high_water], ts)))
        late = np.flatnonzero(ts < latest[:-1] - ORDER_TOLERANCE_SECS)
        if len(late):
            i = late[0]
            raise OrderingError(f"packet at {ts[i]:.6f} arrived after {latest[i]:.6f}")
        self._high_water = float(latest[-1])
        self._blocks.append(block)

    def assign_packet(self, record: PacketRecord):
        """Add one packet, as a block of one row."""
        self.assign_block(PacketBlock.from_records([record]))

    def flush(self) -> list:
        """Assign, emit and drop every packet added so far: the flows in
        flow_order. The blocks are joined and the packet and key columns
        sorted one column at a time, so each column's pieces are freed as
        their joined copy is made, and each unsorted column as its sorted
        copy is."""
        if not self._blocks:
            return []
        columns = [list(pieces) for pieces in zip(*self._blocks)]
        self._blocks = []
        for i, pieces in enumerate(columns):
            columns[i] = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        del pieces
        packets = PacketBlock(*columns)
        del columns
        n = len(packets.timestamp)
        # the key's endpoints in ascending (address, port) order
        src = (packets.src_hi, packets.src_lo, packets.src_port)
        dst = (packets.dst_hi, packets.dst_lo, packets.dst_port)
        swap = _precedes(dst, src)
        key = [np.where(swap, y, x) for x, y in zip(src + dst, dst + src)]
        del src, dst, swap
        # (port b, transport) in one int64, tcp before udp as their names sort
        key[5] <<= 1
        key[5] |= ~packets.tcp
        order = np.lexsort((packets.timestamp, *key[::-1]))
        columns = list(packets)
        del packets
        for group in (key, columns):
            for i in range(len(group)):
                group[i] = group[i][order]
        del order
        packets = PacketBlock(*columns)
        ts = packets.timestamp

        new_key = np.zeros(n, dtype=bool)
        new_key[0] = True
        for column in key:
            new_key[1:] |= column[1:] != column[:-1]
        key_first = np.flatnonzero(new_key)
        opens = _window_starts(ts, key_first, np.append(key_first[1:], n), self.window_secs)
        first = np.flatnonzero(opens)
        stop = np.append(first[1:], n)
        # flows are in key order, each key's windows in time order
        key_flows = np.flatnonzero(new_key[first])
        window_index = np.arange(len(first)) - np.repeat(
            key_flows, np.diff(np.append(key_flows, len(first))))
        # a stable sort by start time leaves ties in key, then window order
        emit = np.argsort(ts[first], kind="stable")
        first, stop, window_index = first[emit], stop[emit], window_index[emit]

        def endpoints(hi, lo, port):
            return zip(ips_from_words(hi[first], lo[first]), port[first].tolist())

        tcp = packets.tcp[first].tolist()
        key_a, key_b = endpoints(*key[:3]), endpoints(key[3], key[4], key[5] >> 1)
        del key   # the flows are built from their keys' first rows alone
        return [
            Flow(FlowKey(endpoint_a, endpoint_b, Transport.TCP if is_tcp else Transport.UDP,
                         index),
                 initiator, start_ts, end_ts, packets, i, j)
            for endpoint_a, endpoint_b, is_tcp, index, initiator, start_ts, end_ts, i, j in zip(
                key_a, key_b, tcp, window_index.tolist(),
                endpoints(packets.src_hi, packets.src_lo, packets.src_port),
                ts[first].tolist(), ts[stop - 1].tolist(), first.tolist(), stop.tolist())
        ]


def _precedes(x, y):
    """Mask of rows where endpoint x sorts before endpoint y: each is a
    (high word, low word, port) triple of columns, compared in that order."""
    (x_hi, x_lo, x_port), (y_hi, y_lo, y_port) = x, y
    return (x_hi < y_hi) | ((x_hi == y_hi) & ((x_lo < y_lo) | ((x_lo == y_lo) & (x_port < y_port))))


def _window_starts(ts, key_first, key_stop, window_secs):
    """Mask of the rows that open a window, the rows of each key
    key_first[k]..key_stop[k]-1 being in time order. A key's first row opens
    one; after a window opened at row i, the next opens at the key's first
    row j with ts[j] - ts[i] > window_secs. Each round finds the next opening
    of every key still open by one binary search run for all of them."""
    opens = np.zeros(len(ts), dtype=bool)
    opens[key_first] = True
    anchor, stop = key_first, key_stop
    while True:
        # a key's window ends before its last row iff that row is past it
        more = ts[stop - 1] - ts[anchor] > window_secs
        anchor, stop = anchor[more], stop[more]
        if not len(anchor):
            return opens
        lo, hi = anchor + 1, stop - 1   # the first row past the window lies in [lo, hi]
        while (lo < hi).any():
            mid = (lo + hi) >> 1
            past = ts[mid] - ts[anchor] > window_secs
            hi = np.where(past, mid, hi)
            lo = np.where(past, lo, mid + 1)
        opens[lo] = True
        anchor = lo


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
    """The rules of a rules file, in file order. A bad value, a non-finite
    start_ts or end_ts, or a row of other than 7 columns raises
    LabelRuleError naming the file and line."""
    rules = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != RULE_HEADER:
                raise LabelRuleError(f"{path}: expected header {','.join(RULE_HEADER)}")
            for row in reader:
                if not row:
                    continue
                where = f"{path}:{reader.line_num}"
                if len(row) != 7:
                    raise LabelRuleError(f"{where}: expected 7 columns")
                try:
                    rule = LabelRule(
                        src_ip=_parse_wild(row[0], ip_to_int),
                        src_port=_parse_wild(row[1], int),
                        dst_ip=_parse_wild(row[2], ip_to_int),
                        dst_port=_parse_wild(row[3], int),
                        start_ts=float(row[4]),
                        end_ts=float(row[5]),
                        label=row[6].strip(),
                    )
                except (ValueError, KeyError) as exc:
                    raise LabelRuleError(f"{where}: bad rule value: {exc}") from exc
                for name in ("start_ts", "end_ts"):
                    if not math.isfinite(getattr(rule, name)):
                        raise LabelRuleError(f"{where}: non-finite {name}")
                rules.append(rule)
    except UnicodeDecodeError as exc:
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
