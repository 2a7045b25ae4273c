"""Classic libpcap file parsing down to TCP/UDP header fields.

Only the classic pcap container is handled (pcapng is out of scope), with
either byte order and micro- or nanosecond timestamps, and only Ethernet
link-layer captures. Frames that are not parseable IP packets are skipped
and counted, never fatal; a truncated record header ends the stream with a
distinct error.

Each frame is decoded by one flat function: precompiled struct.Struct
unpack_from calls at layer offsets into the frame (no slicing), and a
4096-entry table for the TCP flag vector. Timestamps are float seconds.
"""

from __future__ import annotations

import enum
import ipaddress
import struct
from dataclasses import dataclass

MAGIC_LE_MICROS = 0xA1B2C3D4
MAGIC_BE_MICROS = 0xD4C3B2A1
MAGIC_LE_NANOS = 0xA1B23C4D
MAGIC_BE_NANOS = 0x4D3CB2A1

LINKTYPE_ETHERNET = 1

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
ETHERTYPE_VLAN = 0x8100

IPPROTO_TCP = 6
IPPROTO_UDP = 17

V4_MAPPED_PREFIX = 0xFFFF << 32

# Flag order is normative for feature extraction; see features.FEATURE_NAMES.
TCP_FLAG_NAMES = ("ns", "cwr", "ece", "urg", "ack", "psh", "rst", "syn", "fin", "reserved")
NO_FLAGS = (0,) * 10


class CaptureError(Exception):
    """Base class for capture-format problems."""


class UnknownMagicError(CaptureError):
    pass


class TruncatedHeaderError(CaptureError):
    """Global header shorter than 24 bytes."""


class TruncatedRecordError(CaptureError):
    """Per-record header or packet data cut short mid-file."""


class UnsupportedLinkTypeError(CaptureError):
    pass


class Transport(enum.Enum):
    TCP = "tcp"
    UDP = "udp"
    OTHER = "other"


@dataclass(frozen=True)
class PacketRecord:
    """One parsed packet. Addresses are 128-bit integers (IPv4 mapped into
    ::ffff:0:0/96) so ordering and equality work uniformly."""

    timestamp: float
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    transport: Transport
    total_bytes: int
    tcp_flags: tuple
    capture_index: int


def ip_to_int(text: str) -> int:
    addr = ipaddress.ip_address(text)
    if addr.version == 4:
        return V4_MAPPED_PREFIX | int(addr)
    return int(addr)


def ip_to_str(value: int) -> str:
    if value >> 32 == 0xFFFF:
        return str(ipaddress.IPv4Address(value & 0xFFFFFFFF))
    return str(ipaddress.IPv6Address(value))


# Flag vector for every (offset_byte & 0x0F) << 8 | flag_byte: NS is bit 0 of
# the data-offset byte, CWR..FIN the flag byte from its top bit down, and the
# last entry is set when any of the three reserved bits is.
_FLAG_BYTE_BITS = [tuple(f >> bit & 1 for bit in range(7, -1, -1)) for f in range(256)]
TCP_FLAGS = tuple((offset & 1, *_FLAG_BYTE_BITS[f], 1 if offset & 0x0E else 0)
                  for offset in range(16) for f in range(256))

_U16 = struct.Struct(">H").unpack_from
_PORTS = struct.Struct(">HH").unpack_from
# version/IHL, total length, fragment field, protocol, source, destination
_IPV4 = struct.Struct(">BxHxxHxBxxII").unpack_from
# from byte 4: payload length, next header, source and destination as 64-bit halves
_IPV6 = struct.Struct(">HBxQQQQ").unpack_from


def _decode_frame(data: bytes, ts: float, index: int):
    """One Ethernet frame -> PacketRecord, or None for a frame that is not a
    parseable IP packet. Fields are unpacked at offsets into `data`."""
    n = len(data)
    if n < 14:
        return None
    ethertype = _U16(data, 12)[0]
    offset = 14
    if ethertype == ETHERTYPE_VLAN:
        # unwrap a single 802.1Q tag; nested tags are skipped
        if n < 18:
            return None
        ethertype = _U16(data, 16)[0]
        offset = 18
        if ethertype == ETHERTYPE_VLAN:
            return None
    if ethertype == ETHERTYPE_IPV4:
        if n - offset < 20:
            return None
        ver_ihl, total_bytes, frag, proto, src, dst = _IPV4(data, offset)
        ihl = (ver_ihl & 0x0F) * 4
        if ver_ihl >> 4 != 4 or ihl < 20 or n - offset < ihl or total_bytes < ihl:
            return None
        if frag & 0x1FFF:
            return None  # non-first fragment: header-level features only
        src |= V4_MAPPED_PREFIX
        dst |= V4_MAPPED_PREFIX
        l4 = offset + ihl
        # Ethernet padding can extend past the IP datagram; clip to its length
        end = min(n, offset + total_bytes)
    elif ethertype == ETHERTYPE_IPV6:
        if n - offset < 40 or data[offset] >> 4 != 6:
            return None
        payload_len, proto, src_hi, src_lo, dst_hi, dst_lo = _IPV6(data, offset + 4)
        src = src_hi << 64 | src_lo
        dst = dst_hi << 64 | dst_lo
        l4 = offset + 40
        end = min(n, l4 + payload_len)
        total_bytes = payload_len + 40
    else:
        return None
    if proto == IPPROTO_TCP:
        if end - l4 < 14:
            return None  # need ports through the flags byte
        sport, dport = _PORTS(data, l4)
        flags = TCP_FLAGS[(data[l4 + 12] & 0x0F) << 8 | data[l4 + 13]]
        transport = Transport.TCP
    elif proto == IPPROTO_UDP:
        if end - l4 < 8:
            return None
        sport, dport = _PORTS(data, l4)
        flags = NO_FLAGS
        transport = Transport.UDP
    else:
        sport = dport = 0
        flags = NO_FLAGS
        transport = Transport.OTHER
    return PacketRecord(ts, src, dst, sport, dport, transport, total_bytes, flags, index)


class CaptureReader:
    """Iterator over PacketRecords from one pcap file. Single consumer;
    open one reader per file for concurrent work."""

    def __init__(self, path):
        self.path = str(path)
        self._fh = open(path, "rb")
        try:
            header = self._fh.read(24)
            if len(header) < 4:
                raise TruncatedHeaderError(f"{self.path}: no pcap magic")
            magic = struct.unpack("<I", header[:4])[0]
            if magic in (MAGIC_LE_MICROS, MAGIC_LE_NANOS):
                self._endian = "<"
            elif magic in (MAGIC_BE_MICROS, MAGIC_BE_NANOS):
                self._endian = ">"
            else:
                raise UnknownMagicError(f"{self.path}: unknown magic 0x{magic:08X}")
            if len(header) < 24:
                raise TruncatedHeaderError(f"{self.path}: global header truncated")
            native_magic = struct.unpack(self._endian + "I", header[:4])[0]
            self._tick = 1e-9 if native_magic == MAGIC_LE_NANOS else 1e-6
            self._record_header = struct.Struct(self._endian + "IIII").unpack
            link_type = struct.unpack(self._endian + "I", header[20:24])[0]
            if link_type != LINKTYPE_ETHERNET:
                raise UnsupportedLinkTypeError(
                    f"{self.path}: link type {link_type} not supported (Ethernet only)")
        except Exception:
            self._fh.close()
            raise
        self.frames_total = 0
        self.frames_skipped = 0
        self.records_emitted = 0

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __iter__(self):
        return self

    def __next__(self) -> PacketRecord:
        read = self._fh.read
        while True:
            header = read(16)
            if len(header) == 0:
                raise StopIteration
            if len(header) < 16:
                raise TruncatedRecordError(f"{self.path}: record header truncated")
            ts_sec, ts_frac, incl_len, _orig_len = self._record_header(header)
            data = read(incl_len)
            if len(data) < incl_len:
                raise TruncatedRecordError(f"{self.path}: packet data truncated")
            index = self.frames_total
            self.frames_total = index + 1
            record = _decode_frame(data, ts_sec + ts_frac * self._tick, index)
            if record is None:
                self.frames_skipped += 1
                continue
            self.records_emitted += 1
            return record


def open_capture(path) -> CaptureReader:
    """Open a classic pcap file; byte order and timestamp resolution are
    inferred from the magic number."""
    return CaptureReader(path)
