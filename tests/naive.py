"""Brute-force reference implementations used as oracles by several test modules.

Everything here is written straight from the defining formulas (quadratic
loops, explicit matrices, one csv row or one struct field at a time) and
stays independent of the fast paths it checks.
"""

import csv
import math
import os
import struct

import numpy as np

from earlyflow import autodiff as ad
from earlyflow import pcap
from earlyflow.features import FEATURE_NAMES, FLOWS_HEADER
from earlyflow.fourier import real_dft_kernel
from earlyflow.model import md_mha


def naive_dft(x, inverse=False):
    """O(n^2) DFT of a vector; forward kernel exp(-2pi i jk/n), inverse scaled 1/n."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    sign = 1.0 if inverse else -1.0
    j = np.arange(n)
    kernel = np.exp(sign * 2j * np.pi * np.outer(j, j) / n)
    out = kernel @ x
    return out / n if inverse else out


def naive_dft_2d(x, inverse=False):
    """Row transforms then column transforms, each via naive_dft."""
    x = np.asarray(x, dtype=np.complex128)
    rows = np.stack([naive_dft(r, inverse) for r in x])
    cols = np.stack([naive_dft(c, inverse) for c in rows.T]).T
    return cols


def naive_matmul(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            s = 0.0
            for k in range(a.shape[1]):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


def naive_layer_norm(x, gain, bias, eps):
    """Layer norm forward from np.mean and np.var along the last axis."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return gain * ((x - mean) * (1.0 / np.sqrt(var + eps))) + bias


# ---------------------------------------------------------------------------
# multi-domain attention as a graph of autodiff ops

def stacked_matmul(a, b):
    """a @ b for two equal-rank stacks of matrices, as an autodiff node:
    the batched product of the attention oracles, which ad.matmul (a stack
    by one shared matrix) does not take. A constant operand gets no grad."""
    ad_data, bd = a.data, b.data

    def bw(g):
        if a.requires_grad:
            ad._accum(a, g @ np.swapaxes(bd, -1, -2))
        if b.requires_grad:
            ad._accum(b, np.swapaxes(ad_data, -1, -2) @ g)

    return ad._node(ad_data @ bd, (a, b), bw)


def naive_md_mha(z, params, n_heads, queries=None):
    """model.md_mha composed from autodiff ops, so autodiff derives its
    backward: z, C z and -S z concatenated on the batch axis and projected
    by one ad.matmul per weight (w_q on the first `queries` rows, None: every
    row; w_k on every row; w_v on z and C z), sliced back into domains, one
    ad.softmax per head family, and a concat of the merged heads before w_o.
    As in md_mha, a w_o of 2 * d_model rows adds the frequency heads, and the
    output has the query rows alone."""
    batch, length, d_model = z.shape
    rows = length if queries is None else min(queries, length)
    families = params.w_o.shape[0] // d_model   # score families: time, frequency
    dv = d_model // n_heads
    scaling = 1.0 / math.sqrt(d_model)

    def split(t, positions=length):
        return ad.transpose(ad.reshape(t, (t.shape[0], positions, n_heads, dv)), (0, 2, 1, 3))

    def domain(t, i):
        """The batch members of domain i: z, C z, -S z."""
        return ad.slice_axis(t, 0, i * batch, batch)

    def merge(t):
        return ad.reshape(ad.transpose(t, (0, 2, 1, 3)), (batch, rows, d_model))

    def keys(t):
        return ad.transpose(t, (0, 1, 3, 2))

    x = z
    if families == 2:
        kernel = np.broadcast_to(real_dft_kernel(length), (batch, 2 * length, length))
        spectrum = stacked_matmul(ad.const(kernel), z)
        x = ad.concat([z] + [ad.slice_axis(spectrum, 1, start, length) for start in (0, length)],
                      axis=0)
    q = split(ad.matmul(ad.slice_axis(x, 1, 0, rows), params.w_q), rows)
    k = split(ad.matmul(x, params.w_k))
    v = split(ad.matmul(ad.slice_axis(x, 0, 0, families * batch), params.w_v))
    time_scores = ad.softmax(ad.scale(stacked_matmul(domain(q, 0), keys(domain(k, 0))), scaling),
                             axis=-1)
    heads = [merge(stacked_matmul(time_scores, domain(v, 0)))]
    if families == 2:
        cross = ad.add(stacked_matmul(domain(q, 1), keys(domain(k, 1))),
                       stacked_matmul(domain(q, 2), keys(domain(k, 2))))
        freq_scores = ad.softmax(ad.scale(cross, scaling), axis=-1)
        heads.append(merge(stacked_matmul(freq_scores, domain(v, 1))))
    merged = ad.concat(heads, axis=2) if families == 2 else heads[0]
    return ad.matmul(merged, params.w_o)


def naive_dropout(t, p, rng):
    """Inverted dropout of t with its mask drawn from rng; t itself when rng is None."""
    if rng is None or p <= 0.0:
        return t
    keep = (rng.random(t.shape) >= p) / (1.0 - p)
    return ad.mul(t, ad.const(keep))


def naive_encoder_block(z, block, config, rng=None, queries=None):
    """model.encoder_block with its tail composed from autodiff ops, so
    autodiff derives the tail's backward: md_mha, then dropout, residual
    and ad.layer_norm, ad.linear, ad.relu, ad.linear, dropout, residual and
    ad.layer_norm. Like encoder_block, it runs the tail on the rows md_mha
    returns, slicing z to them."""
    attended = md_mha(z, block.attn, config.n_heads, queries)
    rows = attended.shape[1]
    if rows < z.shape[1]:
        z = ad.slice_axis(z, 1, 0, rows)
    z = ad.layer_norm(ad.add(z, naive_dropout(attended, config.dropout, rng)),
                      block.ln1_gain, block.ln1_bias)
    hidden = ad.relu(ad.linear(z, block.ff_w1, block.ff_b1))
    ff = ad.linear(hidden, block.ff_w2, block.ff_b2)
    return ad.layer_norm(ad.add(z, naive_dropout(ff, config.dropout, rng)),
                         block.ln2_gain, block.ln2_bias)


# ---------------------------------------------------------------------------
# features: one row per packet, one csv row per packet, float() per cell

def naive_join_labels(flows, rules):
    """Label of each flow: the first rule, in file order, whose [start, end]
    overlaps the flow's (bounds inclusive) and whose endpoints fit the flow
    in either orientation; None rule fields match anything."""

    def fits(ip, port, endpoint):
        return (ip is None or ip == endpoint[0]) and (port is None or port == endpoint[1])

    labels = []
    for flow in flows:
        a, b = flow.initiator, flow.responder
        label = "BENIGN"
        for rule in rules:
            if rule.start_ts > flow.end_ts or flow.start_ts > rule.end_ts:
                continue
            if ((fits(rule.src_ip, rule.src_port, a) and fits(rule.dst_ip, rule.dst_port, b))
                    or (fits(rule.src_ip, rule.src_port, b) and fits(rule.dst_ip, rule.dst_port, a))):
                label = rule.label
                break
        labels.append(label)
    return labels


def naive_extract_values(flow):
    """(L, 13) feature rows of a flow, filled packet by packet."""
    timestamps = np.array([p.timestamp for p in flow.packets])
    values = np.zeros((len(flow.packets), len(FEATURE_NAMES)))
    for i, (packet, direction) in enumerate(zip(flow.packets, flow.directions)):
        values[i, 0] = direction
        values[i, 1] = 0.0 if i == 0 else timestamps[i] - timestamps[i - 1]
        values[i, 2] = packet.total_bytes
        values[i, 3:13] = packet.tcp_flags
    return values


def naive_series_header(d):
    names = FEATURE_NAMES if d == len(FEATURE_NAMES) else [f"feature_{j}" for j in range(d)]
    return ["flow_id", "seq_index"] + list(names) + ["rel_ts"]


def naive_csv_row(fields):
    """One RFC 4180 row ending in LF: a field holding a comma, a quote, CR or
    LF is quoted, its quotes doubled."""
    def cell(field):
        field = str(field)
        if any(c in field for c in ',"\r\n'):
            return '"' + field.replace('"', '""') + '"'
        return field

    return ",".join(cell(field) for field in fields) + "\n"


def naive_write_dataset(samples, out_dir):
    """write_dataset row by row: one naive_csv_row per row, one f-string per cell."""
    samples = list(samples)
    d = samples[0].width if samples else len(FEATURE_NAMES)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "flows.csv"), "w", newline="", encoding="utf-8") as fh_flows, \
            open(os.path.join(out_dir, "series.csv"), "w", newline="", encoding="utf-8") as fh_series:
        fh_flows.write(naive_csv_row(FLOWS_HEADER))
        fh_series.write(naive_csv_row(naive_series_header(d)))
        for sample in samples:
            endpoints = sample.endpoints or ("*", "*", "*", "*", "*")
            fh_flows.write(naive_csv_row([
                sample.flow_id,
                endpoints[0], endpoints[1], endpoints[2], endpoints[3], endpoints[4],
                f"{sample.timestamps[0]:.9f}", f"{sample.timestamps[-1]:.9f}",
                sample.length, sample.label,
            ]))
            start = sample.timestamps[0]
            for i in range(sample.length):
                row = [sample.flow_id, i]
                row.extend(f"{v:.9f}" for v in sample.values[i])
                row.append(f"{sample.timestamps[i] - start:.9f}")
                fh_series.write(naive_csv_row(row))


def naive_read_long_format(directory):
    """Samples as (id, label, endpoints, values, timestamps) in flows.csv
    order: rows grouped by id in a dict, every number parsed by float().
    The extractor layout adds start_ts to rel_ts; other layouts use rel_ts,
    or unit spacing without it."""
    with open(os.path.join(directory, "flows.csv"), newline="", encoding="utf-8") as fh:
        meta = list(csv.reader(fh))
    extractor = meta[0] == FLOWS_HEADER
    id_col = 0 if extractor else meta[0].index("series_id")
    label_col = meta[0].index("label")
    with open(os.path.join(directory, "series.csv"), newline="", encoding="utf-8") as fh:
        series = list(csv.reader(fh))
    has_rel = series[0][-1] == "rel_ts"
    d = len(series[0]) - 2 - has_rel
    rows_by_id = {}
    for row in series[1:]:
        rows_by_id.setdefault(row[0], []).append(row)
    out = []
    for row in meta[1:]:
        rows = rows_by_id[row[id_col]]
        assert [int(float(r[1])) for r in rows] == list(range(len(rows)))
        values = np.array([[float(v) for v in r[2:2 + d]] for r in rows])
        if not has_rel:
            ts = np.arange(len(rows), dtype=np.float64)
        else:
            ts = np.array([float(r[-1]) for r in rows])
            if extractor:
                ts = float(row[6]) + ts
        endpoints = None
        if extractor and row[1] != "*":
            endpoints = (row[1], int(row[2]), row[3], int(row[4]), row[5])
        out.append((row[id_col], row[label_col], endpoints, values, ts))
    return out


# ---------------------------------------------------------------------------
# pcap: the slicing decoder, one struct.unpack per field

def naive_tcp_flags(offset_byte, flag_byte):
    return (
        offset_byte & 0x01,          # NS
        (flag_byte >> 7) & 1,        # CWR
        (flag_byte >> 6) & 1,        # ECE
        (flag_byte >> 5) & 1,        # URG
        (flag_byte >> 4) & 1,        # ACK
        (flag_byte >> 3) & 1,        # PSH
        (flag_byte >> 2) & 1,        # RST
        (flag_byte >> 1) & 1,        # SYN
        flag_byte & 1,               # FIN
        1 if offset_byte & 0x0E else 0,  # any reserved bit set
    )


def _naive_finish(ts, src, dst, proto, l4, total_bytes, index):
    if proto == pcap.IPPROTO_TCP:
        if len(l4) < 14:
            return "truncated_l4"
        sport, dport = struct.unpack(">HH", l4[:4])
        flags = naive_tcp_flags(l4[12], l4[13])
        transport = pcap.Transport.TCP
    elif proto == pcap.IPPROTO_UDP:
        if len(l4) < 8:
            return "truncated_l4"
        sport, dport = struct.unpack(">HH", l4[:4])
        flags = (0,) * 10
        transport = pcap.Transport.UDP
    else:
        return "other_protocol"
    return pcap.PacketRecord(
        timestamp=ts, src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
        transport=transport, total_bytes=total_bytes, tcp_flags=flags,
        capture_index=index)


def naive_decode_frame(ts, data, index):
    """One Ethernet frame -> PacketRecord, or the pcap.SKIP_REASONS entry
    that skips it, slicing at each layer."""
    if len(data) < 14:
        return "not_ip"
    ethertype = struct.unpack(">H", data[12:14])[0]
    offset = 14
    if ethertype == pcap.ETHERTYPE_VLAN:
        if len(data) < 18:
            return "not_ip"
        ethertype = struct.unpack(">H", data[16:18])[0]
        offset = 18
        if ethertype == pcap.ETHERTYPE_VLAN:
            return "not_ip"
    ip = data[offset:]
    if ethertype == pcap.ETHERTYPE_IPV4:
        if len(ip) < 20 or ip[0] >> 4 != 4:
            return "not_ip"
        ihl = (ip[0] & 0x0F) * 4
        if ihl < 20 or len(ip) < ihl:
            return "not_ip"
        total_len = struct.unpack(">H", ip[2:4])[0]
        if total_len < ihl:
            return "not_ip"
        frag = struct.unpack(">H", ip[6:8])[0]
        if frag & 0x1FFF:
            return "fragment"
        src = pcap.V4_MAPPED_PREFIX | struct.unpack(">I", ip[12:16])[0]
        dst = pcap.V4_MAPPED_PREFIX | struct.unpack(">I", ip[16:20])[0]
        l4 = ip[ihl:min(len(ip), total_len)]
        return _naive_finish(ts, src, dst, ip[9], l4, total_len, index)
    if ethertype == pcap.ETHERTYPE_IPV6:
        if len(ip) < 40 or ip[0] >> 4 != 6:
            return "not_ip"
        payload_len = struct.unpack(">H", ip[4:6])[0]
        src = int.from_bytes(ip[8:24], "big")
        dst = int.from_bytes(ip[24:40], "big")
        l4 = ip[40:min(len(ip), 40 + payload_len)]
        return _naive_finish(ts, src, dst, ip[6], l4, payload_len + 40, index)
    return "not_ip"


def naive_read_capture(path):
    """(records, frames_total, skipped frames by reason) of a classic pcap
    file, read record by record with naive_decode_frame. Raises what CaptureReader
    raises for a bad global header or a truncated record."""
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) < 4:
            raise pcap.TruncatedHeaderError(path)
        magic = struct.unpack("<I", header[:4])[0]
        if magic in (pcap.MAGIC_LE_MICROS, pcap.MAGIC_LE_NANOS):
            endian = "<"
        elif magic in (pcap.MAGIC_BE_MICROS, pcap.MAGIC_BE_NANOS):
            endian = ">"
        else:
            raise pcap.UnknownMagicError(path)
        if len(header) < 24:
            raise pcap.TruncatedHeaderError(path)
        native_magic = struct.unpack(endian + "I", header[:4])[0]
        tick = 1e-9 if native_magic == pcap.MAGIC_LE_NANOS else 1e-6
        if struct.unpack(endian + "I", header[20:24])[0] != pcap.LINKTYPE_ETHERNET:
            raise pcap.UnsupportedLinkTypeError(path)
        records, total, skipped = [], 0, dict.fromkeys(pcap.SKIP_REASONS, 0)
        while True:
            rec_header = fh.read(16)
            if len(rec_header) == 0:
                return records, total, skipped
            if len(rec_header) < 16:
                raise pcap.TruncatedRecordError(path)
            ts_sec, ts_frac, incl_len, _ = struct.unpack(endian + "IIII", rec_header)
            data = fh.read(incl_len)
            if len(data) < incl_len:
                raise pcap.TruncatedRecordError(path)
            record = naive_decode_frame(ts_sec + ts_frac * tick, data, total)
            total += 1
            if isinstance(record, str):
                skipped[record] += 1
            else:
                records.append(record)
