"""Hand-rolled pcap/frame builders for tests.

Frames are assembled byte-by-byte from the wire layouts, independently of the
parser under test, so writing a capture and parsing it back is a genuine
round-trip check.
"""

import struct

from earlyflow.pcap import TCP_FLAG_NAMES

MAC_A = bytes.fromhex("020000000001")
MAC_B = bytes.fromhex("020000000002")


def tcp_flag_tuple(names=()):
    return tuple(1 if n in names else 0 for n in TCP_FLAG_NAMES)


def _ipv4_header(src, dst, proto, payload_len, ihl_words=5):
    total_len = ihl_words * 4 + payload_len
    return struct.pack(
        ">BBHHHBBH4s4s",
        (4 << 4) | ihl_words, 0, total_len, 0x1234, 0, 64, proto, 0,
        bytes(int(p) for p in src.split(".")),
        bytes(int(p) for p in dst.split(".")),
    ) + b"\x00" * ((ihl_words - 5) * 4)


def tcp_frame(src, sport, dst, dport, flags=(), payload=b""):
    """Ethernet/IPv4/TCP frame. flags: iterable of names from TCP_FLAG_NAMES."""
    offset_byte = 5 << 4
    flag_byte = 0
    bits = {"cwr": 0x80, "ece": 0x40, "urg": 0x20, "ack": 0x10,
            "psh": 0x08, "rst": 0x04, "syn": 0x02, "fin": 0x01}
    for name in flags:
        if name == "ns":
            offset_byte |= 0x01
        elif name == "reserved":
            offset_byte |= 0x02
        else:
            flag_byte |= bits[name]
    tcp = struct.pack(">HHIIBBHHH", sport, dport, 0, 0, offset_byte, flag_byte,
                      8192, 0, 0) + payload
    ip = _ipv4_header(src, dst, 6, len(tcp)) + tcp
    return MAC_B + MAC_A + struct.pack(">H", 0x0800) + ip


def udp_frame(src, sport, dst, dport, payload=b""):
    udp = struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload
    ip = _ipv4_header(src, dst, 17, len(udp)) + udp
    return MAC_B + MAC_A + struct.pack(">H", 0x0800) + ip


def icmp_frame(src, dst, ihl_words=5):
    icmp = struct.pack(">BBHI", 8, 0, 0, 0)
    ip = _ipv4_header(src, dst, 1, len(icmp), ihl_words) + icmp
    return MAC_B + MAC_A + struct.pack(">H", 0x0800) + ip


def arp_frame():
    arp = struct.pack(">HHBBH", 1, 0x0800, 6, 4, 1) + MAC_A + b"\x0a\x00\x00\x01" + MAC_B + b"\x0a\x00\x00\x02"
    return MAC_B + MAC_A + struct.pack(">H", 0x0806) + arp


def vlan_wrap(frame, vlan_id=42):
    """Insert one 802.1Q tag after the MAC addresses."""
    return frame[:12] + struct.pack(">HH", 0x8100, vlan_id) + frame[12:]


def fragment_frame(src, dst, offset_units=10):
    """IPv4 fragment with nonzero offset (parser must skip it)."""
    ip = bytearray(_ipv4_header(src, dst, 6, 20) + b"\x00" * 20)
    ip[6:8] = struct.pack(">H", offset_units & 0x1FFF)
    return MAC_B + MAC_A + struct.pack(">H", 0x0800) + bytes(ip)


def write_pcap(path, frames, endian="<", nanos=False):
    """frames: list of (timestamp_seconds, frame_bytes). Timestamps are
    quantized to the file's tick; returns the quantized values."""
    magic = 0xA1B23C4D if nanos else 0xA1B2C3D4
    tick = 1e-9 if nanos else 1e-6
    quantized = []
    with open(path, "wb") as fh:
        fh.write(struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1))
        for ts, frame in frames:
            sec = int(ts)
            frac = round((ts - sec) / tick)
            if frac >= round(1 / tick):
                sec += 1
                frac = 0
            quantized.append(sec + frac * tick)
            fh.write(struct.pack(endian + "IIII", sec, frac, len(frame), len(frame)))
            fh.write(frame)
    return quantized


def write_raw(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)


def ipv6_frame(src, dst, next_header, l4):
    """Ethernet/IPv6 frame around an already built L4 segment."""
    from ipaddress import IPv6Address
    ip = struct.pack(">IHBB", 6 << 28, len(l4), next_header, 64) \
        + IPv6Address(src).packed + IPv6Address(dst).packed
    return MAC_B + MAC_A + struct.pack(">H", 0x86DD) + ip + l4


def ipv6_tcp_frame(src, sport, dst, dport, flags=(), payload=b""):
    """TCP over IPv6; the segment is taken from tcp_frame's IPv4 build."""
    segment = tcp_frame("0.0.0.0", sport, "0.0.0.0", dport, flags, payload)[34:]
    return ipv6_frame(src, dst, 6, segment)


def ipv6_udp_frame(src, sport, dst, dport, payload=b""):
    segment = udp_frame("0.0.0.0", sport, "0.0.0.0", dport, payload)[34:]
    return ipv6_frame(src, dst, 17, segment)
