"""Seeded input generators for the three perfbench workloads.

    python3 perfbench/inputs.py --workload ingest --seed 0 --out DIR

Each generator writes only the files the program reads (a capture plus a
label-rules CSV, or a dataset directory in the extractor's flows.csv /
series.csv layout, plus a checkpoint) and a truth.json holding the ground
truth the output checks compare against. Ground truth is computed here from
the generator's own description of the inputs, never by running the
program's parser, flow table or prefix code. The same seed always gives
byte-identical files.
"""

from __future__ import annotations

import argparse
import ipaddress
import json
import os
import struct
import sys

import numpy as np
from earlyflow.features import FEATURE_NAMES, FLOWS_HEADER, SERIES_HEADER

WINDOW_SECS = 120.0   # passed to extract as --window-secs

# ingest sizing: ~50k frames over ~600 s from ~750 conversations
INGEST_CONVERSATIONS = 750
INGEST_SECONDS = 600.0
INGEST_SESSIONS_PER_CONVERSATION = 4.0
INGEST_MEAN_SESSION_PACKETS = 15.0
INGEST_LONG_SESSION_SHARE = 0.15   # sessions that outlive the 120 s window
INGEST_TCP_SHARE = 0.8
INGEST_IPV6_SHARE = 0.1
INGEST_VLAN_SHARE = 0.1
INGEST_SKIP_FRAME_SHARE = 0.02     # ARP + ICMP frames the extractor must skip
INGEST_STRAGGLER_SHARE = 0.005     # frames written up to 0.8 ms out of order
INGEST_RULES = 40
LABELS = ("DoS", "PortScan", "Bot", "BruteForce", "Exfiltration", "WebAttack")

# train_packets: the criterion-6 toy task
TRAIN_SERIES = 600
TRAIN_LENGTH = 64
TRAIN_WIDTH = 13

# infer_duration: ragged duration prefixes
INFER_FLOWS = 600
INFER_PACKETS = 256
INFER_RATE_RANGE = (20.0, 2400.0)   # packets/s, log-uniform per flow
INFER_PREFIX_SECS = 0.1
INFER_CUTOFF_MARGIN_NS = 20_000     # no packet this close to the prefix cutoff
INFER_CLASSES = ("fast", "medium", "slow")
MODEL_CONFIG = {"d_model": 32, "n_heads": 4, "n_blocks": 2, "d_ff": 64, "dropout": 0.1}

MAC_A = bytes.fromhex("020000000001")
MAC_B = bytes.fromhex("020000000002")
V4_MAPPED = 0xFFFF << 32


# ---------------------------------------------------------------------------
# dataset layout writer (shared by train_packets and infer_duration)

def write_long_dataset(out_dir, flow_ids, labels, start_ts, values, rel_ts):
    """Write flows.csv/series.csv in the extractor layout. values[i] is an
    (L, 13) array and rel_ts[i] its (L,) relative timestamps; endpoints are
    unknown ("*"). Returns the number of series rows."""
    os.makedirs(out_dir, exist_ok=True)
    rows = 0
    row_fmt = ",".join(["%.9f"] * (len(FEATURE_NAMES) + 1))
    with open(os.path.join(out_dir, "flows.csv"), "w", encoding="utf-8", newline="") as fh_flows, \
            open(os.path.join(out_dir, "series.csv"), "w", encoding="utf-8", newline="") as fh_series:
        fh_flows.write(",".join(FLOWS_HEADER) + "\n")
        fh_series.write(",".join(SERIES_HEADER) + "\n")
        for fid, label, start, vals, rel in zip(flow_ids, labels, start_ts, values, rel_ts):
            n = vals.shape[0]
            fh_flows.write(f"{fid},*,*,*,*,*,{start:.9f},{start + rel[-1]:.9f},{n},{label}\n")
            table = np.column_stack([vals, rel])
            fh_series.write("".join(
                f"{fid},{i},{row_fmt % tuple(row)}\n" for i, row in enumerate(table)))
            rows += n
    return rows


# ---------------------------------------------------------------------------
# ingest: capture + rules + flow ground truth

def _ipv4_bytes(value: int) -> bytes:
    return struct.pack(">I", value & 0xFFFFFFFF)


def _ip_text(value: int) -> str:
    if value >> 32 == 0xFFFF:
        return str(ipaddress.IPv4Address(value & 0xFFFFFFFF))
    return str(ipaddress.IPv6Address(value))


def _frame(src_ip, dst_ip, v6, vlan, proto, sport, dport, total_len, flag_byte, offset_byte):
    """Ethernet [+802.1Q] / IP / L4 header, truncated after the L4 header the
    way a short snaplen capture stores it; total_len is the IP-layer size."""
    eth = MAC_B + MAC_A
    if vlan:
        eth += struct.pack(">HH", 0x8100, 7)
    if proto == 6:
        l4 = struct.pack(">HHIIBBHHH", sport, dport, 1, 0, offset_byte, flag_byte, 8192, 0, 0)
    else:
        l4 = struct.pack(">HHHH", sport, dport, total_len - (40 if v6 else 20), 0)
    if v6:
        ip = struct.pack(">IHBB", 6 << 28, total_len - 40, proto, 64) + \
            src_ip.to_bytes(16, "big") + dst_ip.to_bytes(16, "big")
        return eth + struct.pack(">H", 0x86DD) + ip + l4
    ip = struct.pack(">BBHHHBBH", 0x45, 0, total_len, 0x1234, 0x4000, 64, proto, 0) + \
        _ipv4_bytes(src_ip) + _ipv4_bytes(dst_ip)
    return eth + struct.pack(">H", 0x0800) + ip + l4


def _skip_frame(kind, rng):
    if kind == "arp":
        arp = struct.pack(">HHBBH", 1, 0x0800, 6, 4, 1) + MAC_A + b"\x0a\x00\x00\x01" + \
            MAC_B + b"\x0a\x00\x00\x02"
        return MAC_B + MAC_A + struct.pack(">H", 0x0806) + arp
    icmp = struct.pack(">BBHI", 8, 0, 0, int(rng.integers(0, 1 << 16)))
    ip = struct.pack(">BBHHHBBH", 0x45, 0, 28, 0x1234, 0, 64, 1, 0) + \
        _ipv4_bytes(0x0A000001) + _ipv4_bytes(0x0A000002)
    return MAC_B + MAC_A + struct.pack(">H", 0x0800) + ip + icmp


def _conversations(rng):
    servers4 = [V4_MAPPED | (0xAC100000 + 1 + i) for i in range(60)]        # 172.16.0.x
    servers6 = [(0xFD00 << 112) | (0xBEEF << 16) | (1 + i) for i in range(20)]
    tcp_ports = (80, 443, 22, 21, 25, 3389, 8080, 445)
    udp_ports = (53, 123, 161, 5353, 1900)
    convs = []
    for c in range(INGEST_CONVERSATIONS):
        v6 = bool(rng.random() < INGEST_IPV6_SHARE)
        tcp = bool(rng.random() < INGEST_TCP_SHARE)
        if v6:
            client = (0xFD00 << 112) | (0xC1 << 16) | (c + 1)
            server = servers6[int(rng.integers(len(servers6)))]
        else:
            client = V4_MAPPED | (0x0A000000 + (c // 250) * 256 + 1 + c % 250)   # 10.0.x.y
            server = servers4[int(rng.integers(len(servers4)))]
        ports = tcp_ports if tcp else udp_ports
        convs.append({
            "client": client, "server": server, "v6": v6,
            "vlan": bool(rng.random() < INGEST_VLAN_SHARE),
            "proto": 6 if tcp else 17,
            "sport": int(ports[int(rng.integers(len(ports)))]),
        })
    return convs


def _tcp_flags(rng, from_client):
    """(flag_byte, offset_byte) arrays for one session: SYN / SYN-ACK opening,
    FIN at the end, ACK with occasional PSH, RST, NS and reserved bits between."""
    n = len(from_client)
    flag = 0x10 | np.where(rng.random(n) < 0.3, 0x08, 0) | np.where(rng.random(n) < 0.01, 0x04, 0)
    offset = 0x50 | np.where(rng.random(n) < 0.01, 0x01, 0) | np.where(rng.random(n) < 0.005, 0x02, 0)
    if n > 1 and not from_client[1]:
        flag[1], offset[1] = 0x12, 0x50
    flag[-1], offset[-1] = 0x11, 0x50
    flag[0], offset[0] = 0x02, 0x50
    return flag, offset


def _packets(rng, convs):
    """Per-packet columns for every session, in session order."""
    cols = {k: [] for k in ("ts_us", "conv", "session", "from_client", "cport",
                            "total_len", "flag", "offset")}
    session = 0
    for ci, conv in enumerate(convs):
        n_sessions = 1 + int(rng.poisson(INGEST_SESSIONS_PER_CONVERSATION - 1))
        for _ in range(n_sessions):
            cport = int(rng.integers(1024, 65536))
            n = min(2 + int(rng.geometric(1.0 / (INGEST_MEAN_SESSION_PACKETS - 1))), 400)
            start = rng.uniform(0.0, INGEST_SECONDS - 1.0)
            if rng.random() < INGEST_LONG_SESSION_SHARE:
                span = rng.uniform(130.0, 420.0)
            else:
                span = rng.exponential(5.0)
            gaps = rng.exponential(1.0, size=n - 1)
            ts = start + np.concatenate([[0.0], np.cumsum(gaps / gaps.sum() * span)])
            ts_us = np.maximum.accumulate(np.round(ts * 1e6).astype(np.int64) + np.arange(n))
            from_client = rng.random(n) < 0.5
            from_client[0] = True
            if conv["proto"] == 6:
                flag, offset = _tcp_flags(rng, from_client)
                low = 60 if conv["v6"] else 40
            else:
                flag = offset = np.zeros(n, dtype=np.int64)
                low = 48 if conv["v6"] else 28
            cols["ts_us"].extend(ts_us.tolist())
            cols["conv"].extend([ci] * n)
            cols["session"].extend([session] * n)
            cols["from_client"].extend(from_client.tolist())
            cols["cport"].extend([cport] * n)
            cols["total_len"].extend(rng.integers(low, 1501, size=n).tolist())
            cols["flag"].extend(flag.tolist())
            cols["offset"].extend(offset.tolist())
            session += 1
    return cols


def _record_tuple(conv, from_client, cport):
    """(src_ip, src_port, dst_ip, dst_port) as the parser would see them."""
    if from_client:
        return conv["client"], cport, conv["server"], conv["sport"]
    return conv["server"], conv["sport"], conv["client"], cport


def _make_rules(rng, convs):
    rules = []
    for r in range(INGEST_RULES):
        conv = convs[int(rng.integers(len(convs)))]
        t0 = float(rng.uniform(0.0, INGEST_SECONDS * 0.8))
        t1 = t0 + float(rng.uniform(20.0, 200.0))
        label = LABELS[r % len(LABELS)]
        kind = r % 4
        if kind == 0:      # one service on one server
            fields = ("*", "*", _ip_text(conv["server"]), str(conv["sport"]))
        elif kind == 1:    # one client host, any peer
            fields = (_ip_text(conv["client"]), "*", "*", "*")
        elif kind == 2:    # one service port anywhere
            fields = ("*", "*", "*", str(conv["sport"]))
        else:              # host pair
            fields = (_ip_text(conv["server"]), str(conv["sport"]), _ip_text(conv["client"]), "*")
        rules.append(fields + (f"{t0:.6f}", f"{t1:.6f}", label))
    return rules


def _match_labels(flows, rules):
    """First matching rule wins, either orientation, inclusive time overlap."""
    def ip_value(text):
        if text == "*":
            return None
        addr = ipaddress.ip_address(text)
        return V4_MAPPED | int(addr) if addr.version == 4 else int(addr)

    parsed = [(ip_value(r[0]), None if r[1] == "*" else int(r[1]),
               ip_value(r[2]), None if r[3] == "*" else int(r[3]),
               float(r[4]), float(r[5]), r[6]) for r in rules]

    def ends(ip, port, rip, rport):
        return (rip is None or rip == ip) and (rport is None or rport == port)

    labels = []
    for f in flows:
        label = "BENIGN"
        for sip, sport, dip, dport, t0, t1, name in parsed:
            if t0 > f["end"] or f["start"] > t1:
                continue
            ini, res = f["initiator"], f["responder"]
            if (ends(*ini, sip, sport) and ends(*res, dip, dport)) or \
                    (ends(*res, sip, sport) and ends(*ini, dip, dport)):
                label = name
                break
        labels.append(label)
    return labels


def make_ingest(seed, out_dir):
    from earlyflow.pcap import PacketRecord, Transport   # record type the oracle consumes
    from flow_oracle import brute_force_flows

    rng = np.random.default_rng([seed, 1])
    convs = _conversations(rng)
    cols = _packets(rng, convs)
    n = len(cols["ts_us"])
    ts_us = np.array(cols["ts_us"], dtype=np.int64)

    # sub-millisecond stragglers: pull a packet to just after its session
    # predecessor, and later write it before that predecessor
    sess = cols["session"]
    straggler = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(rng.random(n) < INGEST_STRAGGLER_SHARE):
        if i == 0 or sess[i] != sess[i - 1] or straggler[i - 1]:
            continue
        moved = ts_us[i - 1] + int(rng.integers(5, 800))
        if i + 1 < n and sess[i + 1] == sess[i] and moved >= ts_us[i + 1]:
            continue
        ts_us[i] = moved
        straggler[i] = True
    order = np.argsort(ts_us, kind="stable")
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[order] = np.arange(n)

    records = []
    for rank, i in enumerate(order):
        conv = convs[cols["conv"][i]]
        src, sport, dst, dport = _record_tuple(conv, cols["from_client"][i], cols["cport"][i])
        us = int(ts_us[i])
        records.append(PacketRecord(
            timestamp=us // 1_000_000 + (us % 1_000_000) * 1e-6, src_ip=src, dst_ip=dst,
            src_port=sport, dst_port=dport,
            transport=Transport.TCP if conv["proto"] == 6 else Transport.UDP,
            total_bytes=cols["total_len"][i], tcp_flags=(0,) * 10, capture_index=rank))
    oracle = brute_force_flows(records, WINDOW_SECS)
    flow_of_rank = np.empty(n, dtype=np.int64)
    for f_index, flow in enumerate(oracle):
        flow_of_rank[flow[4]] = f_index

    # file order is time order, except that a straggler's predecessor is
    # written right after the straggler when both sit in one oracle flow
    file_key = np.arange(n, dtype=np.float64)
    for i in np.flatnonzero(straggler):
        later, earlier = rank_of[i], rank_of[i - 1]
        if flow_of_rank[later] == flow_of_rank[earlier]:
            file_key[earlier] = later + 0.5
    file_order = np.argsort(file_key, kind="stable")

    # skipped frames scattered through the capture
    n_skip = int(n * INGEST_SKIP_FRAME_SHARE)
    skip_kinds = ["arp" if rng.random() < 0.5 else "icmp" for _ in range(n_skip)]
    skip_slots = np.sort(rng.integers(0, n + 1, size=n_skip))

    os.makedirs(out_dir, exist_ok=True)
    pcap_path = os.path.join(out_dir, "capture.pcap")
    frames_written = 0
    reordered = 0
    high_water = -1
    with open(pcap_path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        slot = 0
        for pos, rank in enumerate(file_order):
            i = order[rank]
            us = int(ts_us[i])
            while slot < n_skip and skip_slots[slot] <= pos:
                frame = _skip_frame(skip_kinds[slot], rng)
                skip_us = max(us - 1, 0)
                fh.write(struct.pack("<IIII", skip_us // 1_000_000, skip_us % 1_000_000,
                                     len(frame), len(frame)) + frame)
                frames_written += 1
                slot += 1
            conv = convs[cols["conv"][i]]
            src, sport, dst, dport = _record_tuple(conv, cols["from_client"][i], cols["cport"][i])
            total_len = cols["total_len"][i]
            frame = _frame(src, dst, conv["v6"], conv["vlan"], conv["proto"], sport, dport,
                           total_len, cols["flag"][i], cols["offset"][i])
            orig = 14 + (4 if conv["vlan"] else 0) + total_len
            fh.write(struct.pack("<IIII", us // 1_000_000, us % 1_000_000, len(frame), orig) + frame)
            frames_written += 1
            if us < high_water:
                if high_water - us >= 1000:
                    raise RuntimeError("straggler beyond the 1 ms ordering tolerance")
                reordered += 1
            high_water = max(high_water, us)
        for kind in skip_kinds[slot:]:
            frame = _skip_frame(kind, rng)
            fh.write(struct.pack("<IIII", high_water // 1_000_000, high_water % 1_000_000,
                                 len(frame), len(frame)) + frame)
            frames_written += 1

    rules = _make_rules(rng, convs)
    with open(os.path.join(out_dir, "rules.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("src_ip,src_port,dst_ip,dst_port,start_ts,end_ts,label\n")
        for rule in rules:
            fh.write(",".join(rule) + "\n")

    flows = []
    for flow in oracle:
        first, last = records[flow[4][0]], records[flow[4][-1]]
        initiator = (first.src_ip, first.src_port)
        a, b = flow[0], flow[1]
        flows.append({"start": first.timestamp, "end": last.timestamp, "initiator": initiator,
                      "responder": b if initiator == a else a, "packets": len(flow[4])})
    labels = _match_labels(flows, rules)
    label_counts = {}
    for label in labels:
        label_counts[label] = label_counts.get(label, 0) + 1
    truth = {
        "workload": "ingest", "seed": seed, "window_secs": WINDOW_SECS,
        "frames": frames_written, "flows": len(oracle), "packets": n, "skipped": n_skip,
        "reordered_frames": reordered,
        "ipv6_packets": sum(convs[c]["v6"] for c in cols["conv"]),
        "vlan_packets": sum(convs[c]["vlan"] for c in cols["conv"]),
        "window_split_flows": sum(1 for f in oracle if f[3] > 0),
        "flow_lengths": sorted(f["packets"] for f in flows),
        "label_counts": dict(sorted(label_counts.items())),
    }
    return truth


# ---------------------------------------------------------------------------
# train_packets: frequency_suite in the extractor layout

def make_train(seed, out_dir):
    from gen_mts import frequency_suite

    samples = frequency_suite(seed, n=TRAIN_SERIES, length=TRAIN_LENGTH, d=TRAIN_WIDTH)
    rows = write_long_dataset(
        out_dir, [s.flow_id for s in samples], [s.label for s in samples],
        [0.0] * len(samples), [s.values for s in samples],
        [s.timestamps - s.timestamps[0] for s in samples])
    return {"workload": "train_packets", "seed": seed, "series": len(samples),
            "rows": rows, "classes": sorted({s.label for s in samples})}


# ---------------------------------------------------------------------------
# infer_duration: ragged-rate flows plus a checkpoint

def _duration_prefix_truth(rel_ns, cutoff_ns):
    """(packets used, earliness, duration earliness) from integer timestamps."""
    used = max(int(np.searchsorted(rel_ns, cutoff_ns, side="right")), 1)
    total = len(rel_ns)
    de = rel_ns[used - 1] / rel_ns[-1] if rel_ns[-1] > 0 else 0.0
    return used, used / total, float(de)


def make_infer(seed, out_dir):
    from earlyflow.model import MdtConfig, MdtModel, save_checkpoint

    rng = np.random.default_rng([seed, 3])
    lo, hi = np.log(INFER_RATE_RANGE[0]), np.log(INFER_RATE_RANGE[1])
    cutoff_ns = int(round(INFER_PREFIX_SECS * 1e9))
    flow_ids, labels, starts, values, rels, per_flow = [], [], [], [], [], []
    for i in range(INFER_FLOWS):
        rate = float(np.exp(rng.uniform(lo, hi)))
        gaps = np.maximum(np.round(rng.exponential(1e9 / rate, size=INFER_PACKETS - 1)), 1)
        rel_ns = np.concatenate([[0], np.cumsum(gaps)]).astype(np.int64)
        near = np.abs(rel_ns - cutoff_ns) < INFER_CUTOFF_MARGIN_NS
        rel_ns[near & (rel_ns < cutoff_ns)] = cutoff_ns - INFER_CUTOFF_MARGIN_NS
        rel_ns[near & (rel_ns >= cutoff_ns)] = cutoff_ns + INFER_CUTOFF_MARGIN_NS
        rel_ns = np.maximum.accumulate(rel_ns)
        rel = rel_ns / 1e9
        vals = np.zeros((INFER_PACKETS, len(FEATURE_NAMES)))
        vals[:, 0] = np.where(rng.random(INFER_PACKETS) < 0.6, 1.0, -1.0)
        vals[1:, 1] = np.diff(rel_ns) / 1e9
        vals[:, 2] = rng.integers(40, 1501, size=INFER_PACKETS)
        vals[:, 3:] = rng.random((INFER_PACKETS, 10)) < 0.15
        label = INFER_CLASSES[0] if rate > 400 else INFER_CLASSES[1] if rate > 70 else INFER_CLASSES[2]
        flow_ids.append(f"flow-{i:05d}")
        labels.append(label)
        starts.append(100.0 + 0.5 * i)
        values.append(vals)
        rels.append(rel)
        per_flow.append(_duration_prefix_truth(rel_ns, cutoff_ns))
    rows = write_long_dataset(out_dir, flow_ids, labels, starts, values, rels)

    config = MdtConfig(d_in=len(FEATURE_NAMES), n_classes=len(INFER_CLASSES),
                       max_len=INFER_PACKETS, **MODEL_CONFIG)
    model = MdtModel(config, seed=seed)
    model.classes = INFER_CLASSES
    save_checkpoint(model, os.path.join(out_dir, "model.ckpt"))
    lengths = np.array([p[0] for p in per_flow])
    return {
        "workload": "infer_duration", "seed": seed, "flows": INFER_FLOWS, "rows": rows,
        "prefix_secs": INFER_PREFIX_SECS, "classes": list(INFER_CLASSES),
        "flow_ids": flow_ids, "labels": labels,
        "prefix_len": [int(v) for v in lengths],
        "earliness": [p[1] for p in per_flow],
        "duration_earliness": [p[2] for p in per_flow],
        "prefix_len_p10_p50_p90": [float(v) for v in np.percentile(lengths, [10, 50, 90])],
        "prefix_len_gt64_frac": float((lengths > 64).mean()),
    }


GENERATORS = {"ingest": make_ingest, "train_packets": make_train, "infer_duration": make_infer}


def generate(workload, seed, out_dir):
    truth = GENERATORS[workload](seed, out_dir)
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh)
    return truth


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
