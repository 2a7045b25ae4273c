import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earlyflow.features import extract_mts
from earlyflow import pcap
from earlyflow.flows import FlowTable
from earlyflow.pcap import (
    FLAG_TUPLES, CaptureError, CaptureReader, PacketRecord, TCP_FLAG_NAMES, Transport,
    TruncatedHeaderError, TruncatedRecordError, UnknownMagicError, UnsupportedLinkTypeError,
    ip_to_int, ip_to_str, open_capture,
)

from gen_pcap import (
    arp_frame, fragment_frame, icmp_frame, ipv6_tcp_frame, ipv6_udp_frame,
    tcp_flag_tuple, tcp_frame, udp_frame, vlan_wrap, write_pcap, write_raw,
)
from naive import naive_read_capture, naive_tcp_flags


def read_all(path):
    with open_capture(path) as reader:
        records = list(reader)
        return records, reader


def test_empty_capture(tmp_path):
    path = tmp_path / "empty.pcap"
    write_pcap(path, [])
    records, reader = read_all(path)
    assert records == []
    assert reader.frames_total == 0


def test_unknown_magic(tmp_path):
    path = tmp_path / "bad.pcap"
    write_raw(path, struct.pack("<IHHiIII", 0xDEADBEEF, 2, 4, 0, 0, 65535, 1))
    with pytest.raises(UnknownMagicError):
        open_capture(path)


def test_truncated_global_header(tmp_path):
    path = tmp_path / "short.pcap"
    write_raw(path, struct.pack("<I", 0xA1B2C3D4) + b"\x00" * 4)
    with pytest.raises(TruncatedHeaderError):
        open_capture(path)


def test_unsupported_link_type(tmp_path):
    path = tmp_path / "linktype.pcap"
    write_raw(path, struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101))
    with pytest.raises(UnsupportedLinkTypeError):
        open_capture(path)


def test_missing_file(tmp_path):
    with pytest.raises(OSError):
        open_capture(tmp_path / "nope.pcap")


def test_truncated_record_header(tmp_path):
    path = tmp_path / "trunc.pcap"
    write_raw(path, struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1) + b"\x01\x02")
    with pytest.raises(TruncatedRecordError):
        read_all(path)


def test_syn_packet_fields(tmp_path):
    path = tmp_path / "syn.pcap"
    frame = tcp_frame("10.0.0.1", 4321, "10.0.0.2", 80, flags=("syn",))
    write_pcap(path, [(1.5, frame)])
    records, _ = read_all(path)
    assert len(records) == 1
    r = records[0]
    assert r.timestamp == 1.5
    assert ip_to_str(r.src_ip) == "10.0.0.1"
    assert ip_to_str(r.dst_ip) == "10.0.0.2"
    assert (r.src_port, r.dst_port) == (4321, 80)
    assert r.transport is Transport.TCP
    assert r.total_bytes == 40  # 20 IP + 20 TCP, no payload
    assert r.tcp_flags == tcp_flag_tuple(("syn",))


def test_udp_packet_has_zero_flags(tmp_path):
    path = tmp_path / "udp.pcap"
    write_pcap(path, [(2.0, udp_frame("10.0.0.1", 53, "10.0.0.2", 5353))])
    records, _ = read_all(path)
    assert records[0].transport is Transport.UDP
    assert records[0].tcp_flags == (0,) * 10
    assert records[0].total_bytes == 28


def test_arp_skipped_and_counted(tmp_path):
    path = tmp_path / "mix.pcap"
    write_pcap(path, [
        (1.0, arp_frame()),
        (1.1, tcp_frame("10.0.0.1", 1111, "10.0.0.2", 80, flags=("ack",))),
    ])
    records, reader = read_all(path)
    assert len(records) == 1
    assert reader.frames_skipped == 1
    assert reader.frames_total == 2
    # capture_index keeps the raw frame position
    assert records[0].capture_index == 1


def test_byte_swapped_twin_parses_identically(tmp_path):
    frames = [
        (10.000001, tcp_frame("192.168.1.5", 5000, "10.9.8.7", 443, flags=("syn", "ece", "cwr"))),
        (10.25, udp_frame("192.168.1.5", 5353, "224.0.0.251", 5353)),
        (11.0, tcp_frame("10.9.8.7", 443, "192.168.1.5", 5000, flags=("syn", "ack"))),
    ]
    little = tmp_path / "le.pcap"
    big = tmp_path / "be.pcap"
    write_pcap(little, frames, endian="<")
    write_pcap(big, frames, endian=">")
    rec_le, _ = read_all(little)
    rec_be, _ = read_all(big)
    assert rec_le == rec_be


def test_nanosecond_magic(tmp_path):
    path = tmp_path / "nanos.pcap"
    ts = write_pcap(path, [(5.000000123, tcp_frame("1.2.3.4", 1, "5.6.7.8", 2))], nanos=True)
    records, _ = read_all(path)
    assert records[0].timestamp == ts[0]
    assert abs(records[0].timestamp - 5.000000123) < 1e-12


def test_vlan_unwrapped_once_nested_skipped(tmp_path):
    path = tmp_path / "vlan.pcap"
    inner = tcp_frame("10.0.0.1", 1234, "10.0.0.2", 80, flags=("psh", "ack"))
    write_pcap(path, [
        (1.0, vlan_wrap(inner)),
        (2.0, vlan_wrap(vlan_wrap(inner))),
    ])
    records, reader = read_all(path)
    assert len(records) == 1
    assert reader.frames_skipped == 1
    assert records[0].src_port == 1234


def test_fragment_skipped(tmp_path):
    path = tmp_path / "frag.pcap"
    write_pcap(path, [(1.0, fragment_frame("10.0.0.1", "10.0.0.2"))])
    records, reader = read_all(path)
    assert records == []
    assert reader.frames_skipped == 1


def test_icmp_skipped(tmp_path):
    path = tmp_path / "icmp.pcap"
    write_pcap(path, [(1.0, icmp_frame("10.0.0.1", "10.0.0.2"))])
    records, reader = read_all(path)
    assert records == []
    assert reader.frames_skipped == 1


def test_roundtrip_random_records(tmp_path):
    import numpy as np
    rng = np.random.default_rng(77)
    specs = []
    for i in range(60):
        src = f"10.{rng.integers(0, 3)}.0.{rng.integers(1, 5)}"
        dst = f"10.{rng.integers(0, 3)}.1.{rng.integers(1, 5)}"
        sport = int(rng.integers(1024, 60000))
        dport = int(rng.integers(1, 1024))
        if rng.random() < 0.5:
            names = [n for n in ("syn", "ack", "psh", "fin", "rst", "urg", "ece", "cwr", "ns", "reserved")
                     if rng.random() < 0.3]
            frame = tcp_frame(src, sport, dst, dport, flags=names,
                              payload=bytes(int(rng.integers(0, 64))))
            transport = Transport.TCP
            flags = tcp_flag_tuple(names)
        else:
            frame = udp_frame(src, sport, dst, dport, payload=bytes(int(rng.integers(0, 64))))
            transport = Transport.UDP
            flags = (0,) * 10
        specs.append((src, sport, dst, dport, transport, flags, frame))

    path = tmp_path / "roundtrip.pcap"
    times = write_pcap(path, [(100.0 + i * 0.001, s[-1]) for i, s in enumerate(specs)])
    records, reader = read_all(path)
    assert len(records) == len(specs)
    assert reader.frames_total == reader.records_emitted + reader.frames_skipped
    for i, (r, spec, ts) in enumerate(zip(records, specs, times)):
        src, sport, dst, dport, transport, flags, frame = spec
        assert r.timestamp == ts
        assert ip_to_str(r.src_ip) == src
        assert ip_to_str(r.dst_ip) == dst
        assert (r.src_port, r.dst_port) == (sport, dport)
        assert r.transport is transport
        assert r.tcp_flags == flags
        # IP total length: frame minus 14 bytes of Ethernet
        assert r.total_bytes == len(frame) - 14
        assert r.capture_index == i


def test_ip_int_string_roundtrip():
    for text in ("0.0.0.0", "10.0.0.1", "255.255.255.255", "2001:db8::1"):
        assert ip_to_str(ip_to_int(text)) == text


def mixed_frames():
    """One frame of every kind the decoder tells apart."""
    tcp = tcp_frame("10.0.0.1", 1234, "10.0.0.2", 80, flags=("syn", "ns", "reserved"))
    return [
        tcp,
        tcp_frame("10.0.0.2", 80, "10.0.0.1", 1234, flags=TCP_FLAG_NAMES, payload=b"x" * 30),
        udp_frame("10.0.0.3", 53, "10.0.0.4", 5353, payload=b"q" * 12),
        vlan_wrap(tcp),
        vlan_wrap(vlan_wrap(tcp)),
        vlan_wrap(udp_frame("10.0.0.3", 53, "10.0.0.4", 5353))[:20],
        ipv6_tcp_frame("2001:db8::1", 4000, "2001:db8::2", 443, flags=("ack", "psh"),
                       payload=b"p" * 7),
        ipv6_udp_frame("fe80::1", 546, "ff02::1:2", 547),
        vlan_wrap(ipv6_tcp_frame("::1", 1, "::2", 2, flags=("fin",))),
        arp_frame(),
        icmp_frame("10.0.0.1", "10.0.0.2"),
        icmp_frame("10.0.0.1", "10.0.0.2", ihl_words=15),   # 40 bytes of IP options
        fragment_frame("10.0.0.1", "10.0.0.2"),
        tcp + b"\x00" * 6,          # Ethernet padding past the IP datagram
        tcp[:14 + 20 + 13],         # TCP header cut before the flags byte
        udp_frame("10.0.0.3", 53, "10.0.0.4", 5353)[:14 + 20 + 7],
        tcp[:30],
        b"",
    ]


def parse_both(path):
    """(records, frames_total, skipped frames by reason) or the error type,
    from the flat decoder and from the slicing oracle."""
    try:
        with open_capture(path) as reader:
            fast = (list(reader), reader.frames_total, reader.skipped_by)
    except CaptureError as exc:
        fast = type(exc)
    try:
        slow = naive_read_capture(path)
    except CaptureError as exc:
        slow = type(exc)
    return fast, slow


@pytest.mark.parametrize("endian,nanos", [("<", False), (">", True)])
def test_flat_decoder_matches_slicing_decoder(tmp_path, endian, nanos):
    frames = mixed_frames()
    path = tmp_path / "mixed.pcap"
    write_pcap(path, [(1.7e9 + 0.001 * i, f) for i, f in enumerate(frames)],
               endian=endian, nanos=nanos)
    fast, slow = parse_both(path)
    assert fast == slow
    records, total, skipped = fast
    assert (total, len(records)) == (len(frames), 8)
    assert skipped == {"not_ip": 5, "fragment": 1, "other_protocol": 2, "truncated_l4": 2}
    transports = [r.transport for r in records]
    assert transports.count(Transport.TCP) == 6 and transports.count(Transport.UDP) == 2


def test_record_past_maximum_snaplen_rejected_without_reading_it(tmp_path):
    # a corrupt incl_len of 2^28 would otherwise ask read() for 256 MB
    path = tmp_path / "huge.pcap"
    header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    write_raw(path, header + struct.pack("<IIII", 1, 0, 1 << 28, 1 << 28) + b"\x00" * 64)
    tracemalloc.start()
    try:
        with pytest.raises(CaptureError, match=f"record 0 claims {1 << 28} bytes, more than "
                                               f"{pcap.MAXIMUM_SNAPLEN}"):
            read_all(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_flag_table_matches_bitwise_decode():
    offset_byte, flag_byte = np.divmod(np.arange(1 << 16), 256)
    codes = pcap.tcp_flag_codes(offset_byte, flag_byte).tolist()
    for code, offset, flags in zip(codes, offset_byte.tolist(), flag_byte.tolist()):
        assert FLAG_TUPLES[code] == naive_tcp_flags(offset, flags)


def test_every_truncation_and_bit_flip_matches_oracle(tmp_path):
    """Each mixed frame cut at every length, and with single bits of every
    byte flipped (version nibbles, header lengths, ethertypes, ports)."""
    frames = []
    for frame in mixed_frames():
        frames.extend(frame[:n] for n in range(len(frame)))
        for pos in range(len(frame)):
            for mask in (0x01, 0x04, 0x08, 0x20, 0x40, 0x80, 0xFF):
                mutated = bytearray(frame)
                mutated[pos] ^= mask
                frames.append(bytes(mutated))
    path = tmp_path / "sweep.pcap"
    write_pcap(path, [(100.0 + 1e-4 * i, f) for i, f in enumerate(frames)])
    fast, slow = parse_both(path)
    assert fast == slow
    assert 0 < len(fast[0]) < len(frames)


@settings(max_examples=150)
@given(st.lists(st.tuples(
    st.integers(0, len(mixed_frames()) - 1),
    st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=6),
    st.one_of(st.none(), st.integers(0, 120))), min_size=1, max_size=6),
    st.integers(0, 40))
def test_mutated_frames_match_oracle_and_raise_only_capture_errors(specs, cut):
    base = mixed_frames()
    frames = []
    for i, (which, edits, length) in enumerate(specs):
        frame = bytearray(base[which])
        for pos, byte in edits:
            if pos < len(frame):
                frame[pos] = byte
        frames.append((100.0 + 0.01 * i, bytes(frame[:length])))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "fuzz.pcap")
        write_pcap(path, frames)
        if cut:
            path.write_bytes(path.read_bytes()[:-cut])
        fast, slow = parse_both(path)
        assert fast == slow
        if isinstance(fast, tuple):
            table = FlowTable(window_secs=120.0)
            for record in fast[0]:
                table.assign_packet(record)
            extract_mts(table.flush())


@settings(max_examples=60)
@given(st.lists(st.integers(0, len(mixed_frames()) - 1), max_size=12),
       st.integers(1, 300), st.integers(0, 40), st.booleans())
def test_block_decoder_matches_oracle_across_block_boundaries(which, block_bytes, cut, nanos):
    """Blocks far smaller than a frame, and frames straddling every block
    boundary, decode to the oracle's records, counts and errors."""
    base = mixed_frames()
    frames = [(1.7e9 + 0.01 * i, base[w]) for i, w in enumerate(which)]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(pcap, "BLOCK_BYTES", block_bytes)
        path = Path(tmp, "blocks.pcap")
        write_pcap(path, frames, nanos=nanos)
        if cut:
            path.write_bytes(path.read_bytes()[:-cut])
        fast, slow = parse_both(path)
    assert fast == slow


@pytest.mark.parametrize("cut,what", [(3, "packet data"), (42 + 1, "record header")])
def test_records_yielded_before_a_truncation(tmp_path, monkeypatch, cut, what):
    """Whole frames ahead of a cut record are yielded before the error, which
    names the part that was cut."""
    monkeypatch.setattr(pcap, "BLOCK_BYTES", 64)
    frame = udp_frame("10.0.0.3", 53, "10.0.0.4", 5353)
    assert len(frame) == 42
    path = tmp_path / "cut.pcap"
    write_pcap(path, [(1.0 + i, frame) for i in range(5)])
    path.write_bytes(path.read_bytes()[:-cut])   # 43 bytes leave 15 of the last header
    with open_capture(path) as reader:
        got = []
        with pytest.raises(TruncatedRecordError, match=f"{what} truncated"):
            for record in reader:
                got.append(record.capture_index)
    assert got == [0, 1, 2, 3]


class CountingFile:
    """Binary file whose read calls are recorded."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)
        self.reads = []

    def read(self, size):
        self.reads.append(size)
        return self.fh.read(size)

    def close(self):
        self.fh.close()


def test_frame_longer_than_a_block_takes_one_more_read(tmp_path, monkeypatch):
    files = []
    monkeypatch.setattr(pcap, "open", lambda *a: files.append(CountingFile(*a)) or files[-1],
                        raising=False)
    monkeypatch.setattr(pcap, "BLOCK_BYTES", 16)
    big = tcp_frame("10.0.0.1", 1234, "10.0.0.2", 80, payload=b"x" * 20000)
    path = tmp_path / "big.pcap"
    write_pcap(path, [(1.0, big), (2.0, udp_frame("10.0.0.3", 53, "10.0.0.4", 5353))])
    records, _ = read_all(path)
    assert [r.total_bytes for r in records] == [len(big) - 14, 28]
    assert len(files[0].reads) <= 6, files[0].reads


@given(st.sampled_from(PacketRecord._fields + ("extra",)),
       st.one_of(st.integers(), st.floats(), st.none()))
def test_packet_record_is_immutable(field, value):
    record = PacketRecord(timestamp=1.0, src_ip=1, dst_ip=2, src_port=3, dst_port=4,
                          transport=Transport.UDP, total_bytes=28, tcp_flags=(0,) * 10,
                          capture_index=0)
    before = tuple(record)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    assert tuple(record) == before
