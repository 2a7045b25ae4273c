"""Brute-force flow grouping oracle.

Sorts every packet by canonical 5-tuple, then walks each group segmenting by
the window rule (anchored at each segment's first packet, boundary
inclusive). Written without the streaming table so the two can disagree.
"""

from earlyflow.pcap import Transport


def _ckey(r):
    a = (r.src_ip, r.src_port)
    b = (r.dst_ip, r.dst_port)
    if b < a:
        a, b = b, a
    return (a, b, r.transport.value)


def brute_force_flows(records, window_secs):
    """Returns a list of flow descriptions sorted by start time:
    (endpoint_a, endpoint_b, transport_name, window_index,
     packet capture_index list, direction list)."""
    decorated = sorted(
        ((_ckey(r), i, r) for i, r in enumerate(records)),
        key=lambda t: (t[0], t[2].timestamp, t[1]),
    )
    flows = []
    group_key = None
    segment = None
    window_index = 0
    for ckey, _, r in decorated:
        if ckey != group_key:
            group_key = ckey
            window_index = 0
            segment = None
        if segment is None or r.timestamp - segment["anchor"] > window_secs:
            if segment is not None:
                window_index += 1
            segment = {
                "anchor": r.timestamp,
                "key": ckey,
                "index": window_index,
                "initiator": (r.src_ip, r.src_port),
                "packets": [],
                "dirs": [],
            }
            flows.append(segment)
        segment["packets"].append(r.capture_index)
        segment["dirs"].append(
            1 if (r.src_ip, r.src_port) == segment["initiator"] else -1)

    flows.sort(key=lambda s: (s["anchor"], s["key"]))
    return [
        (s["key"][0], s["key"][1], s["key"][2], s["index"], s["packets"], s["dirs"])
        for s in flows
    ]


def table_flows_as_tuples(flows):
    """Project FlowTable output onto the oracle's tuple shape."""
    return [
        (f.key.endpoint_a, f.key.endpoint_b, f.key.transport.value, f.key.window_index,
         [p.capture_index for p in f.packets], list(f.directions))
        for f in flows
    ]


def random_capture_records(rng, n_packets, n_conversations=6, window_secs=120.0):
    """Time-ordered PacketRecords over a few interleaved conversations, with
    gaps that land exactly on, just inside, and just past the window."""
    from earlyflow.pcap import PacketRecord, ip_to_int

    convos = []
    for c in range(n_conversations):
        a = (ip_to_int(f"10.0.{c}.1"), int(rng.integers(1024, 60000)))
        b = (ip_to_int(f"10.1.{c}.1"), int(rng.integers(1, 1024)))
        transport = Transport.TCP if rng.random() < 0.7 else Transport.UDP
        convos.append((a, b, transport))

    records = []
    t = 0.0
    for i in range(n_packets):
        a, b, transport = convos[int(rng.integers(0, n_conversations))]
        if rng.random() < 0.5:
            src, dst = a, b
        else:
            src, dst = b, a
        roll = rng.random()
        if roll < 0.02:
            t += window_secs  # lands exactly on the inclusive boundary for some flow
        elif roll < 0.04:
            t += window_secs + 1e-6
        elif roll < 0.1:
            t += float(rng.uniform(1.0, 30.0))
        else:
            t += float(rng.uniform(0.0, 0.05))
        flags = (0,) * 10
        if transport is Transport.TCP:
            flags = tuple(int(rng.random() < 0.2) for _ in range(10))
        records.append(PacketRecord(
            timestamp=round(t, 6), src_ip=src[0], dst_ip=dst[0],
            src_port=src[1], dst_port=dst[1], transport=transport,
            total_bytes=int(rng.integers(40, 1500)), tcp_flags=flags,
            capture_index=i))
    return records
