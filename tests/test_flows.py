import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earlyflow.flows import (
    FlowTable, LabelRuleError, OrderingError,
    join_labels, load_label_rules, LabelRule,
)
from earlyflow.pcap import PacketBlock, PacketRecord, Transport, ip_to_int

from flow_oracle import brute_force_flows, random_capture_records, table_flows_as_tuples
from naive import naive_join_labels


def rec(ts, src="10.0.0.1", sport=5000, dst="10.0.0.2", dport=80,
        transport=Transport.TCP, idx=0, flags=(0,) * 10):
    if transport is not Transport.TCP:
        flags = (0,) * 10
    return PacketRecord(
        timestamp=ts, src_ip=ip_to_int(src), dst_ip=ip_to_int(dst),
        src_port=sport, dst_port=dport, transport=transport,
        total_bytes=40, tcp_flags=flags, capture_index=idx)


def test_flow_key_symmetric():
    fwd = dict(src="10.0.0.1", sport=5000, dst="10.0.0.2", dport=80)
    back = dict(src="10.0.0.2", sport=80, dst="10.0.0.1", dport=5000)
    keys = []
    for first, second in ((fwd, back), (back, fwd)):
        table = FlowTable(window_secs=120.0)
        table.assign_packet(rec(1.0, idx=0, **first))
        table.assign_packet(rec(1.1, idx=1, **second))
        (flow,) = table.flush()
        keys.append(flow.key)
    assert keys[0] == keys[1]
    assert keys[0].endpoint_a == (ip_to_int("10.0.0.1"), 5000)
    assert keys[0].endpoint_b == (ip_to_int("10.0.0.2"), 80)


def test_same_tuple_far_apart_gets_new_window_index():
    table = FlowTable(window_secs=120.0)
    table.assign_packet(rec(0.0, idx=0))
    table.assign_packet(rec(200.0, idx=1))
    flows = table.flush()
    assert len(flows) == 2
    assert [f.key.window_index for f in flows] == [0, 1]


def test_ten_packets_in_tenth_of_second_form_one_flow():
    # payload-style burst: 10 packets spanning 0.10 s
    table = FlowTable(window_secs=120.0)
    for i in range(10):
        table.assign_packet(rec(i * 0.10 / 9, idx=i))
    flows = table.flush()
    assert len(flows) == 1
    assert len(flows[0].packets) == 10
    assert abs((flows[0].end_ts - flows[0].start_ts) - 0.10) < 1e-9


def test_window_boundary_inclusive():
    table = FlowTable(window_secs=120.0)
    table.assign_packet(rec(0.0, idx=0))
    table.assign_packet(rec(120.0, idx=1))
    assert len(table.flush()) == 1


def test_window_boundary_plus_one_splits():
    table = FlowTable(window_secs=120.0)
    table.assign_packet(rec(0.0, idx=0))
    table.assign_packet(rec(121.0, idx=1))
    assert len(table.flush()) == 2


def test_flush_empty_table():
    assert FlowTable().flush() == []


def test_flush_open_flow_on_infinite_horizon():
    table = FlowTable(window_secs=120.0)
    table.assign_packet(rec(0.0))
    flows = table.flush()
    assert len(flows) == 1


def test_direction_relative_to_initiator():
    table = FlowTable(window_secs=120.0)
    table.assign_packet(rec(0.0, src="10.0.0.2", sport=80, dst="10.0.0.1", dport=5000, idx=0))
    table.assign_packet(rec(0.1, src="10.0.0.1", sport=5000, dst="10.0.0.2", dport=80, idx=1))
    flow = table.flush()[0]
    assert flow.directions == [1, -1]
    assert flow.initiator == (ip_to_int("10.0.0.2"), 80)


def test_out_of_order_beyond_tolerance_rejected():
    table = FlowTable(window_secs=120.0)
    table.assign_packet(rec(10.0, idx=0))
    with pytest.raises(OrderingError):
        table.assign_packet(rec(9.99, idx=1))


def test_ordering_checked_against_latest_packet():
    table = FlowTable(window_secs=120.0)
    table.assign_packet(rec(10.0, idx=0))
    table.assign_packet(rec(10.5, sport=6000, idx=1))
    with pytest.raises(OrderingError):
        table.assign_packet(rec(10.4, idx=2))


def test_ordering_error_names_the_first_late_packet_of_a_block():
    table = FlowTable(window_secs=120.0)
    table.assign_packet(rec(10.0, idx=0))
    block = PacketBlock.from_records([rec(10.5, idx=1), rec(10.4, idx=2), rec(10.3, idx=3)])
    with pytest.raises(OrderingError, match=r"^packet at 10\.400000 arrived after 10\.500000$"):
        table.assign_block(block)
    # the rejected block adds nothing
    table.assign_packet(rec(10.1, idx=4))
    assert [p.capture_index for f in table.flush() for p in f.packets] == [0, 4]


def test_small_jitter_tolerated_and_sorted():
    table = FlowTable(window_secs=120.0)
    table.assign_packet(rec(10.0, idx=0))
    table.assign_packet(rec(10.0 - 0.0005, idx=1))
    flow = table.flush()[0]
    assert [p.capture_index for p in flow.packets] == [1, 0]
    assert flow.directions[0] == 1  # first packet is always the initiator


def test_responder_straggler_becomes_initiator():
    a = dict(src="10.0.0.1", sport=5000, dst="10.0.0.2", dport=80)
    b = dict(src="10.0.0.2", sport=80, dst="10.0.0.1", dport=5000)
    table = FlowTable(window_secs=120.0)
    table.assign_packet(rec(10.0, idx=0, **a))
    table.assign_packet(rec(10.0, idx=1, **a))
    # the responder's packet lands first: its endpoint now opens the flow
    table.assign_packet(rec(10.0 - 0.0005, idx=2, **b))
    table.assign_packet(rec(10.0002, idx=3, **a))
    table.assign_packet(rec(10.0003, idx=4, **b))
    table.assign_packet(rec(10.0001, idx=5, **b))   # straggler after the flip
    flow = table.flush()[0]
    assert [p.capture_index for p in flow.packets] == [2, 0, 1, 5, 3, 4]
    assert flow.initiator == (ip_to_int("10.0.0.2"), 80)
    assert flow.responder == (ip_to_int("10.0.0.1"), 5000)
    assert flow.directions == [1, -1, -1, 1, -1, 1]


def test_straggler_at_window_boundary_joins_the_earlier_window():
    # the B->A straggler is earlier than the second A->B packet and inside
    # the first packet's window, so it belongs to the first flow
    a = dict(src="10.0.0.1", sport=5000, dst="10.0.0.2", dport=80)
    b = dict(src="10.0.0.2", sport=80, dst="10.0.0.1", dport=5000)
    records = [rec(0.0, idx=0, **a), rec(120.0005, idx=1, **a), rec(119.9999, idx=2, **b)]
    table = FlowTable(window_secs=120.0)
    for r in records:
        table.assign_packet(r)
    flows = table.flush()
    assert [[p.capture_index for p in f.packets] for f in flows] == [[0, 2], [1]]
    assert [f.initiator for f in flows] == [(ip_to_int("10.0.0.1"), 5000)] * 2
    assert [f.key.window_index for f in flows] == [0, 1]
    assert table_flows_as_tuples(flows) == brute_force_flows(records, 120.0)


# three conversations: two between distinct endpoints (one over IPv6 and
# UDP) and one endpoint talking to itself; steps land on, just inside and
# just past a 1 s window, and stragglers arrive up to 0.9 ms late
A, B = (ip_to_int("10.0.0.1"), 5000), (ip_to_int("10.0.0.2"), 80)
C = (ip_to_int("2001:db8::1"), 80)
CONVERSATIONS = [(A, B, Transport.TCP), (A, C, Transport.UDP), (A, A, Transport.TCP)]
stream_steps = st.lists(st.tuples(
    st.sampled_from([0.0, 0.0004, 0.9996, 1.0, 1.0004]),
    st.sampled_from([0.0, 0.0009]),
    st.integers(0, len(CONVERSATIONS) - 1), st.booleans()),
    min_size=1, max_size=40)


@settings(max_examples=120)
@given(stream_steps, st.data())
def test_blocks_and_single_packets_give_the_oracle_flows(steps, data):
    records, t = [], 1000.0
    for i, (step, late, conversation, reply) in enumerate(steps):
        t += step
        src, dst, transport = CONVERSATIONS[conversation]
        if reply:
            src, dst = dst, src
        flags = tuple(int(bit) for bit in f"{i % 1024:010b}") \
            if transport is Transport.TCP else (0,) * 10
        records.append(PacketRecord(
            timestamp=t - late, src_ip=src[0], dst_ip=dst[0], src_port=src[1],
            dst_port=dst[1], transport=transport, total_bytes=40 + i, tcp_flags=flags,
            capture_index=i))
    one_by_one = FlowTable(window_secs=1.0)
    for r in records:
        one_by_one.assign_packet(r)
    blocked = FlowTable(window_secs=1.0)
    at = 0
    while at < len(records):
        size = data.draw(st.integers(1, len(records)))
        blocked.assign_block(PacketBlock.from_records(records[at:at + size]))
        at += size
    want = brute_force_flows(records, 1.0)
    for flows in (one_by_one.flush(), blocked.flush()):
        assert table_flows_as_tuples(flows) == want
        assert [f.packets for f in flows] == [[records[i] for i in w[4]] for w in want]


def test_interleaved_conversations_match_oracle():
    rng = np.random.default_rng(5)
    records = random_capture_records(rng, 400, n_conversations=3)
    table = FlowTable(window_secs=120.0)
    for r in records:
        table.assign_packet(r)
    got = table_flows_as_tuples(table.flush())
    want = brute_force_flows(records, 120.0)
    assert got == want


def test_partition_property():
    rng = np.random.default_rng(6)
    records = random_capture_records(rng, 500)
    table = FlowTable(window_secs=120.0)
    for r in records:
        table.assign_packet(r)
    flows = table.flush()
    assert sum(len(f.packets) for f in flows) == len(records)
    seen = sorted(p.capture_index for f in flows for p in f.packets)
    assert seen == sorted(r.capture_index for r in records)


def make_flow(table_args=(120.0,), packets=()):
    table = FlowTable(*table_args)
    for p in packets:
        table.assign_packet(p)
    return table.flush()


def test_join_labels_no_rules_all_benign():
    flows = make_flow(packets=[rec(0.0)])
    join_labels(flows, [])
    assert flows[0].label == "BENIGN"


def test_join_labels_reversed_orientation_matches():
    flows = make_flow(packets=[rec(5.0, src="10.0.0.1", sport=5000, dst="10.0.0.2", dport=80)])
    rule = LabelRule(
        src_ip=ip_to_int("10.0.0.2"), src_port=80,
        dst_ip=ip_to_int("10.0.0.1"), dst_port=5000,
        start_ts=0.0, end_ts=10.0, label="Infiltration")
    join_labels(flows, [rule])
    assert flows[0].label == "Infiltration"


def test_join_labels_first_rule_wins():
    flows = make_flow(packets=[rec(5.0)])
    wild = dict(src_ip=None, src_port=None, dst_ip=None, dst_port=None,
                start_ts=0.0, end_ts=10.0)
    join_labels(flows, [LabelRule(label="First", **wild), LabelRule(label="Second", **wild)])
    assert flows[0].label == "First"


def test_join_labels_interval_must_overlap():
    flows = make_flow(packets=[rec(5.0)])
    rule = LabelRule(src_ip=None, src_port=None, dst_ip=None, dst_port=None,
                     start_ts=100.0, end_ts=200.0, label="Late")
    join_labels(flows, [rule])
    assert flows[0].label == "BENIGN"


# IPv6 addresses do not fit in int64; 10.9.9.9 and port 2**70 appear in no flow
ADDRESSES = ["10.0.0.1", "10.0.0.2", "2001:db8::1"]
PORTS = [80, 5000]
endpoint_lists = st.lists(st.tuples(st.sampled_from(ADDRESSES), st.sampled_from(PORTS),
                                    st.sampled_from(ADDRESSES), st.sampled_from(PORTS)),
                          max_size=30)
rule_ips = st.none() | st.sampled_from(ADDRESSES + ["10.9.9.9"]).map(ip_to_int)
rule_ports = st.none() | st.sampled_from(PORTS + [2 ** 70])
# a rule's end falls up to 16 s after its start, or up to 2 s before it
rule_lists = st.lists(st.tuples(rule_ips, rule_ports, rule_ips, rule_ports,
                                st.integers(0, 30), st.integers(-2, 16)), max_size=8)


@settings(max_examples=80)
@given(endpoint_lists, rule_lists)
def test_join_labels_matches_rule_by_rule_oracle(endpoints, rule_fields):
    # one packet a second, so flow bounds and rule bounds often coincide
    table = FlowTable(window_secs=4.0)
    for ts, (src, sport, dst, dport) in enumerate(endpoints):
        table.assign_packet(rec(float(ts), src, sport, dst, dport))
    flows = table.flush()
    rules = [LabelRule(*fields[:4], start_ts=float(start), end_ts=float(start + span),
                       label=f"rule{i}")
             for i, (*fields, start, span) in enumerate(rule_fields)]
    want = naive_join_labels(flows, rules)
    assert join_labels(flows, rules) is flows
    assert [flow.label for flow in flows] == want


def test_load_label_rules(tmp_path):
    path = tmp_path / "rules.csv"
    path.write_text(
        "src_ip,src_port,dst_ip,dst_port,start_ts,end_ts,label\n"
        "10.0.0.1,*,10.0.0.2,80,0.0,100.5,PortScan\n"
        "*,*,*,*,0,1e9,BENIGN\n",
        encoding="utf-8")
    rules = load_label_rules(path)
    assert len(rules) == 2
    assert rules[0].src_ip == ip_to_int("10.0.0.1")
    assert rules[0].src_port is None
    assert rules[0].dst_port == 80
    assert rules[0].label == "PortScan"


def test_load_label_rules_rejects_bad_header(tmp_path):
    path = tmp_path / "rules.csv"
    path.write_text("ip,port\n", encoding="utf-8")
    with pytest.raises(LabelRuleError):
        load_label_rules(path)


def test_load_label_rules_rejects_bad_value(tmp_path):
    path = tmp_path / "rules.csv"
    path.write_text(
        "src_ip,src_port,dst_ip,dst_port,start_ts,end_ts,label\n"
        "not-an-ip,*,*,*,0,1,X\n",
        encoding="utf-8")
    with pytest.raises(LabelRuleError):
        load_label_rules(path)
