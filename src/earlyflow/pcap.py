"""Classic libpcap file parsing down to TCP/UDP header fields.

Only the classic pcap container is handled (pcapng is out of scope), with
either byte order and micro- or nanosecond timestamps, and only Ethernet
link-layer captures. Frames that are not parseable TCP or UDP packets
are skipped and counted by reason (SKIP_REASONS), never fatal; a truncated
record header ends the stream with a distinct error.

The reader decodes frames in blocks of about BLOCK_BYTES of the file: it
walks the block's record headers with one unpack_from each, then decodes the
Ethernet, VLAN, IPv4, IPv6, TCP and UDP fields of every frame in the block
at once with numpy gathers and masks into a PacketBlock, one numpy column
per field. CaptureReader.blocks() hands out those blocks as they are, which
is how extract reads a capture without a Python object per packet;
iterating the reader turns each block into PacketRecords. Timestamps are
float seconds.
"""

from __future__ import annotations

import enum
import ipaddress
import struct
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

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

# Flag order is normative: features.FEATURE_NAMES names its flag columns
# flag_<name> in this order.
TCP_FLAG_NAMES = ("ns", "cwr", "ece", "urg", "ack", "psh", "rst", "syn", "fin", "reserved")

# Bytes of the file read per block; a block always holds at least one whole
# frame, so a larger frame makes a larger block.
BLOCK_BYTES = 1 << 18
# Largest record libpcap accepts (its MAXIMUM_SNAPLEN); a longer incl_len is
# corruption, and reading it would allocate that many bytes.
MAXIMUM_SNAPLEN = 262144


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


class PacketRecord(NamedTuple):
    """One parsed packet, immutable. Addresses are 128-bit integers (IPv4
    mapped into ::ffff:0:0/96) so ordering and equality work uniformly."""

    timestamp: float
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    transport: Transport
    total_bytes: int
    tcp_flags: tuple
    capture_index: int


# The bit of each flag in a 10-bit flag code, in TCP_FLAG_NAMES order, first
# flag highest: flag j is code >> FLAG_SHIFTS[j] & 1. The one owner of that
# layout; extract_mts fills its flag columns from it.
FLAG_SHIFTS = np.arange(len(TCP_FLAG_NAMES) - 1, -1, -1)


def flag_bits(codes) -> np.ndarray:
    """(n, 10) 0/1 int64 flag vectors of n flag codes."""
    return np.asarray(codes, dtype=np.int64)[:, None] >> FLAG_SHIFTS & 1


# the flag tuple of each code, as PacketRecord.tcp_flags holds it
FLAG_TUPLES = tuple(map(tuple, flag_bits(np.arange(1 << len(TCP_FLAG_NAMES))).tolist()))

# transport of a packet, indexed by its TCP mask
_TRANSPORTS = (Transport.UDP, Transport.TCP)
_LOW_WORD = (1 << 64) - 1


def ips_from_words(hi, lo) -> list:
    """128-bit addresses as Python ints from uint64 columns of their high and
    low words; only rows with a high word pay for the shift."""
    out = lo.tolist()
    rows = np.flatnonzero(hi)
    for i, word in zip(rows.tolist(), hi[rows].tolist()):
        out[i] |= word << 64
    return out


class PacketBlock(NamedTuple):
    """Packets as numpy columns, row i one packet: the fields of PacketRecord
    with each 128-bit address split into its high and low 64-bit words
    (uint64), the transport as a TCP mask and the flag vector as its 10-bit
    code. Ports, sizes, codes and capture indices are int64."""

    timestamp: np.ndarray
    src_hi: np.ndarray
    src_lo: np.ndarray
    dst_hi: np.ndarray
    dst_lo: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    tcp: np.ndarray
    total_bytes: np.ndarray
    flag_code: np.ndarray
    capture_index: np.ndarray

    @classmethod
    def from_records(cls, records) -> PacketBlock:
        """The block of a sequence of PacketRecords, in order."""
        n = len(records)
        ts, src, dst, sport, dport, transport, size, flags, index = \
            zip(*records) if n else ((),) * 9
        flags = np.array(flags, dtype=np.int64).reshape(n, len(TCP_FLAG_NAMES))

        def words(ips):
            return (np.fromiter((ip >> 64 for ip in ips), np.uint64, n),
                    np.fromiter((ip & _LOW_WORD for ip in ips), np.uint64, n))

        return cls(np.array(ts, dtype=np.float64), *words(src), *words(dst),
                   np.array(sport, dtype=np.int64), np.array(dport, dtype=np.int64),
                   np.array([t is Transport.TCP for t in transport], dtype=bool),
                   np.array(size, dtype=np.int64), flags @ (1 << FLAG_SHIFTS),
                   np.array(index, dtype=np.int64))

    @classmethod
    def concat(cls, blocks) -> PacketBlock:
        """One block of the rows of `blocks`, in order; a lone block is
        returned as it is."""
        blocks = list(blocks)
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return cls.from_records([])
        return cls(*map(np.concatenate, zip(*blocks)))

    def take(self, rows) -> PacketBlock:
        """The block of the rows `rows` selects (an index array or a slice)."""
        return PacketBlock(*(column[rows] for column in self))

    def records(self) -> list:
        """The block's rows as PacketRecords."""
        columns = (
            self.timestamp.tolist(), ips_from_words(self.src_hi, self.src_lo),
            ips_from_words(self.dst_hi, self.dst_lo), self.src_port.tolist(),
            self.dst_port.tolist(), map(_TRANSPORTS.__getitem__, self.tcp.tolist()),
            self.total_bytes.tolist(), map(FLAG_TUPLES.__getitem__, self.flag_code.tolist()),
            self.capture_index.tolist(),
        )
        return list(map(tuple.__new__, repeat(PacketRecord), zip(*columns)))


def ip_to_int(text: str) -> int:
    addr = ipaddress.ip_address(text)
    if addr.version == 4:
        return V4_MAPPED_PREFIX | int(addr)
    return int(addr)


def ip_to_str(value: int) -> str:
    if value >> 32 == 0xFFFF:
        return str(ipaddress.IPv4Address(value & 0xFFFFFFFF))
    return str(ipaddress.IPv6Address(value))


def tcp_flag_codes(offset_byte, flag_byte):
    """Flag codes from the TCP data-offset and flag bytes (int64 arrays): NS
    is bit 0 of the data-offset byte, CWR..FIN the flag byte from its top bit
    down, and the reserved flag is set when any of the three reserved bits
    is."""
    return (offset_byte & 1) << 9 | flag_byte << 1 | ((offset_byte & 0x0E) != 0)


# Why a frame is skipped, in the order _decode_block's masks drop frames:
# no whole IPv4 or IPv6 header (a non-IP ethertype, a nested VLAN tag, a cut
# or malformed IP header), a non-first IPv4 fragment, an IP protocol other
# than TCP and UDP, and a TCP or UDP header cut short.
SKIP_REASONS = ("not_ip", "fragment", "other_protocol", "truncated_l4")


def _decode_block(buf, start, length, timestamps, first_index):
    """(block, skipped): the PacketBlock of the frames
    buf[start[i]:start[i] + length[i]] that are parseable TCP or UDP
    packets, in frame order, the frame at position i getting capture_index
    first_index + i; and the number of the other frames under each of
    SKIP_REASONS, each counted under the first mask that drops it.

    Every header field of every frame is gathered at once. A gather past the
    end of its frame reads a clipped position, and the masks below drop such
    frames, so the rules are those of a per-frame decoder: Ethernet with at
    most one 802.1Q tag, IPv4 (version, header length, total length >= header
    length, first fragments only) or IPv6, and TCP through the flags byte or
    UDP through its header, measured within the IP datagram (Ethernet padding
    is clipped off)."""
    data = np.frombuffer(buf, dtype=np.uint8)
    last = len(data) - 1

    def u8(offset):
        return data[np.minimum(start + offset, last)].astype(np.int64)

    def u16(offset):
        return u8(offset) << 8 | u8(offset + 1)

    def u64(rows, offset):
        """Big-endian 64-bit words at offset into the frames `rows`."""
        at = (start[rows] + offset[rows])[:, None] + np.arange(8)
        return data[np.minimum(at, last)].view(">u8").ravel().astype(np.uint64)

    ethertype = u16(12)
    vlan = ethertype == ETHERTYPE_VLAN
    ethertype = np.where(vlan, u16(16), ethertype)   # a nested tag is skipped below
    l3 = np.where(vlan, 18, 14)
    room = length - l3          # negative when the Ethernet header itself is cut
    version_ihl = u8(l3)
    version = version_ihl >> 4
    ihl = (version_ihl & 0x0F) * 4
    ip_total = u16(l3 + 2)
    v4 = (ethertype == ETHERTYPE_IPV4) & (version == 4) & (ihl >= 20) & (room >= ihl) \
        & (ip_total >= ihl)
    fragment = v4 & ((u16(l3 + 6) & 0x1FFF) != 0)  # non-first fragments carry no L4 header
    v4 &= ~fragment
    v6 = (ethertype == ETHERTYPE_IPV6) & (room >= 40) & (version == 6)
    ip = v4 | v6
    payload = u16(l3 + 4)
    proto = np.where(v4, u8(l3 + 9), u8(l3 + 6))
    l4 = l3 + np.where(v4, ihl, 40)
    # Ethernet padding can extend past the IP datagram; clip to its length
    l4_room = np.minimum(length, np.where(v4, l3 + ip_total, l4 + payload)) - l4
    tcp = proto == IPPROTO_TCP
    udp = proto == IPPROTO_UDP
    transport = ip & (tcp | udp)
    ok = transport & ((tcp & (l4_room >= 14)) | (udp & (l4_room >= 8)))
    skipped = np.count_nonzero([~(ip | fragment), fragment, ip & ~transport, transport & ~ok],
                               axis=1).tolist()

    keep = np.flatnonzero(ok)
    v4, v6, tcp, l3, l4 = v4[keep], v6[keep], tcp[keep], l3[keep], l4[keep]
    start = start[keep]         # the gathers below read the kept frames only
    flag_code = np.where(tcp, tcp_flag_codes(u8(l4 + 12), u8(l4 + 13)), 0)
    total_bytes = np.where(v4, ip_total[keep], payload[keep] + 40)
    # IPv4 addresses: the mapped prefix fits the low 64-bit word; the IPv6
    # rows then get both words
    src_hi, dst_hi = np.zeros((2, len(keep)), dtype=np.uint64)
    src_lo = (V4_MAPPED_PREFIX | (u16(l3 + 12) << 16 | u16(l3 + 14))).astype(np.uint64)
    dst_lo = (V4_MAPPED_PREFIX | (u16(l3 + 16) << 16 | u16(l3 + 18))).astype(np.uint64)
    rows = np.flatnonzero(v6)
    src_hi[rows], src_lo[rows], dst_hi[rows], dst_lo[rows] = (
        u64(rows, l3 + offset) for offset in (8, 16, 24, 32))
    block = PacketBlock(timestamps[keep], src_hi, src_lo, dst_hi, dst_lo, u16(l4), u16(l4 + 2),
                        tcp, total_bytes, flag_code, keep + first_index)
    return block, skipped


class CaptureReader:
    """Reader of one pcap file: iterate it for PacketRecords, or call
    blocks() for PacketBlocks. Single consumer of one of the two; open one
    reader per file for concurrent work.

    frames_total, records_emitted and skipped_by (the skipped frames under
    each of SKIP_REASONS) count the frames of every block decoded so far, so
    they can run one block ahead of the records yielded; they are exact
    once the iteration ends."""

    def __init__(self, path):
        self.path = str(path)
        self._fh = open(path, "rb")
        try:
            header = self._fh.read(24)
            if len(header) < 4:
                raise TruncatedHeaderError(f"{self.path}: no pcap magic")
            magic = struct.unpack("<I", header[:4])[0]
            if magic in (MAGIC_LE_MICROS, MAGIC_LE_NANOS):
                endian = "<"
            elif magic in (MAGIC_BE_MICROS, MAGIC_BE_NANOS):
                endian = ">"
            else:
                raise UnknownMagicError(f"{self.path}: unknown magic 0x{magic:08X}")
            if len(header) < 24:
                raise TruncatedHeaderError(f"{self.path}: global header truncated")
            self._tick = 1e-9 if magic in (MAGIC_LE_NANOS, MAGIC_BE_NANOS) else 1e-6
            self._endian = endian
            self._incl_len = struct.Struct(endian + "8xI").unpack_from
            link_type = struct.unpack(endian + "I", header[20:24])[0]
            if link_type != LINKTYPE_ETHERNET:
                raise UnsupportedLinkTypeError(
                    f"{self.path}: link type {link_type} not supported (Ethernet only)")
        except Exception:
            self._fh.close()
            raise
        self._rest = b""            # bytes after the last whole frame read
        self._records = chain.from_iterable(map(PacketBlock.records, self.blocks()))
        self.frames_total = 0
        self.records_emitted = 0
        self.skipped_by = dict.fromkeys(SKIP_REASONS, 0)

    @property
    def frames_skipped(self) -> int:
        return sum(self.skipped_by.values())

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
        return next(self._records)

    def blocks(self):
        """Iterator over the PacketBlocks of the frames not yet read, one per
        block of the file; a block may hold no rows."""
        return iter(self._read_block, None)

    def _read_block(self) -> PacketBlock | None:
        """PacketBlock of the next run of whole frames. None at a clean end
        of file; raises TruncatedRecordError once only a partial record is
        left."""
        incl_len = self._incl_len
        at = []
        missing = 0
        while not at:
            # a frame longer than a block is completed by one read
            chunk = self._fh.read(max(BLOCK_BYTES, missing))
            buf = self._rest + chunk
            pos, end = 0, len(buf)
            while end - pos >= 16:
                after = pos + 16 + incl_len(buf, pos)[0]
                if after > end:
                    # every record longer than BLOCK_BYTES, so every one past
                    # MAXIMUM_SNAPLEN, comes here before it fits
                    if after - pos - 16 > MAXIMUM_SNAPLEN:
                        raise CaptureError(
                            f"{self.path}: record {self.frames_total + len(at)} claims "
                            f"{after - pos - 16} bytes, more than {MAXIMUM_SNAPLEN}")
                    missing = after - end
                    break
                at.append(pos)
                pos = after
            self._rest = buf[pos:]
            if not chunk:             # no whole frame is left
                if not self._rest:
                    return None
                what = "record header" if len(self._rest) < 16 else "packet data"
                raise TruncatedRecordError(f"{self.path}: {what} truncated")
        at = np.array(at, dtype=np.int64)
        headers = np.frombuffer(buf, dtype=np.uint8)[at[:, None] + np.arange(16)]
        sec, frac, length, _orig_len = headers.view(self._endian + "u4").astype(np.int64).T
        block, skipped = _decode_block(buf, at + 16, length, sec + frac * self._tick,
                                       self.frames_total)
        self.frames_total += len(at)
        self.records_emitted += len(block.timestamp)
        for reason, n in zip(SKIP_REASONS, skipped):
            self.skipped_by[reason] += n
        return block


def open_capture(path) -> CaptureReader:
    """Open a classic pcap file; byte order and timestamp resolution are
    inferred from the magic number."""
    return CaptureReader(path)
