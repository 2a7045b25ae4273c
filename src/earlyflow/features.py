"""Per-packet feature extraction and dataset serialization.

Each finalized flow becomes one multivariate time series with a fixed-order
13-feature row per packet: direction relative to the initiator, inter-arrival
time in seconds (0 for the first packet), size in bytes at the IP layer, and
the ten TCP flag bits. Datasets are a pair of CSVs: flows.csv holds per-flow
metadata, series.csv holds the long-format feature rows with 9 fractional
digits. The series columns are named after the sample width: FEATURE_NAMES
at the extractor's 13, feature_0 ... feature_{d-1} at any other width d.

extract_mts turns a list of flows into samples in one pass: it builds the
(N, 13) feature array of all N packets at once and gives each sample its
slice. write_dataset formats each flow's rows as one block. One long-format
reader, read_dataset, reads both the extractor layout and external series
(training.load_external_mts adds a profile check): it takes d from the
series header, parses every numeric cell with one np.loadtxt call and
groups rows by id in one pass.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from itertools import chain, groupby, repeat
from operator import attrgetter, eq

import numpy as np

from .pcap import TCP_FLAG_NAMES, ip_to_str

FEATURE_NAMES = ["direction", "iat_seconds", "bytes", *(f"flag_{n}" for n in TCP_FLAG_NAMES)]
NUM_FEATURES = len(FEATURE_NAMES)

# Every 10-bit TCP flag vector and the number its bits spell, first flag
# highest: extract_mts maps flag tuples to these numbers and back to bits.
_FLAG_SHIFTS = np.arange(len(TCP_FLAG_NAMES) - 1, -1, -1)
_FLAG_CODE = {tuple(bits): code for code, bits in enumerate(
    (np.arange(1 << len(_FLAG_SHIFTS))[:, None] >> _FLAG_SHIFTS & 1).tolist())}

FLOWS_HEADER = ["flow_id", "src_ip", "src_port", "dst_ip", "dst_port",
                "transport", "start_ts", "end_ts", "num_packets", "label"]


def series_header(d: int) -> list:
    """series.csv columns for width d: the features are FEATURE_NAMES at the
    extractor's width, feature_0 ... feature_{d-1} otherwise."""
    names = FEATURE_NAMES if d == NUM_FEATURES else [f"feature_{j}" for j in range(d)]
    return ["flow_id", "seq_index", *names, "rel_ts"]


SERIES_HEADER = series_header(NUM_FEATURES)


class DatasetFormatError(Exception):
    pass


@dataclass
class MtsSample:
    """One labeled time series: values is (L, d), timestamps absolute seconds.
    endpoints, when known, is (src_ip, src_port, dst_ip, dst_port, transport)
    in initiator orientation."""

    flow_id: str
    values: np.ndarray
    timestamps: np.ndarray
    label: str
    endpoints: tuple | None = field(default=None)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def extract_mts(flows) -> list:
    """One MtsSample per flow, in the given order. Row i of a sample holds
    the feature vector of packet i; the first IAT entry is 0. The flow id is
    initiator-responder-transport@start.

    The (N, 13) feature array of all N packets is built in one pass and each
    sample takes its slice: every column is read from the packets by one
    C-level map, the IAT column is one difference over the concatenated
    timestamps (set to 0 where each flow starts), flag vectors are looked up
    as ten 0/1 bits (as pcap decodes them), and each endpoint address is
    formatted once."""
    flows = list(flows)
    if not flows:
        return []
    lengths = [len(flow.packets) for flow in flows]
    packets = list(chain.from_iterable(flow.packets for flow in flows))
    n = len(packets)

    def column(field, dtype=np.float64):
        return np.fromiter(map(attrgetter(field), packets), dtype, n)

    timestamps = column("timestamp")
    starts = np.cumsum(lengths) - lengths
    values = np.empty((n, NUM_FEATURES))
    # +1 where the packet was sent by its flow's initiator
    initiator_ips = chain.from_iterable(map(repeat, [f.initiator[0] for f in flows], lengths))
    from_ip = np.fromiter(map(eq, map(attrgetter("src_ip"), packets), initiator_ips), bool, n)
    from_port = column("src_port", np.int64) == np.repeat([f.initiator[1] for f in flows], lengths)
    values[:, 0] = np.where(from_ip & from_port, 1.0, -1.0)
    values[1:, 1] = timestamps[1:] - timestamps[:-1]
    values[starts, 1] = 0.0
    values[:, 2] = column("total_bytes")
    flag_codes = np.fromiter(map(_FLAG_CODE.__getitem__, map(attrgetter("tcp_flags"), packets)),
                             np.int64, n)
    values[:, 3:] = flag_codes[:, None] >> _FLAG_SHIFTS & 1
    names = {ip: ip_to_str(ip) for ip in {ip for flow in flows
                                          for ip, _ in (flow.key.endpoint_a, flow.key.endpoint_b)}}
    samples = []
    for flow, start, length in zip(flows, starts.tolist(), lengths):
        rows = slice(start, start + length)
        (src_ip, src_port), (dst_ip, dst_port) = flow.initiator, flow.responder
        src, dst, transport = names[src_ip], names[dst_ip], flow.key.transport.value
        samples.append(MtsSample(
            flow_id=f"{src}:{src_port}-{dst}:{dst_port}-{transport}@{flow.start_ts:.6f}",
            values=values[rows],
            timestamps=timestamps[rows],
            label=flow.label if flow.label is not None else "BENIGN",
            endpoints=(src, src_port, dst, dst_port, transport),
        ))
    return samples


def write_dataset(samples, out_dir) -> dict:
    """Write flows.csv and series.csv under out_dir; returns a small manifest
    with row counts. Numeric fields carry exactly 9 fractional digits, and
    the series columns are named by series_header(d) for the samples' width
    d. Each flow's series rows are formatted as one block."""
    samples = list(samples)
    widths = {s.width for s in samples}
    if len(widths) > 1:
        raise ValueError(f"samples mix feature widths: {sorted(widths)}")
    duplicate = _first_duplicate(s.flow_id for s in samples)
    if duplicate is not None:
        raise ValueError(f"duplicate flow_id {duplicate!r}")
    d = widths.pop() if widths else NUM_FEATURES
    row_fmt = ",%d" + ",%.9f" * (d + 1) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    flows_path = os.path.join(out_dir, "flows.csv")
    series_path = os.path.join(out_dir, "series.csv")
    n_rows = 0
    # the flow id goes through csv.writer once per flow, so it is quoted
    # exactly as a csv.writer row would quote it
    id_buf = io.StringIO()
    id_csv = csv.writer(id_buf, lineterminator="")
    with open(flows_path, "w", newline="", encoding="utf-8") as fh_flows, \
            open(series_path, "w", newline="", encoding="utf-8") as fh_series:
        flows_csv = csv.writer(fh_flows, lineterminator="\n")
        flows_csv.writerow(FLOWS_HEADER)
        csv.writer(fh_series, lineterminator="\n").writerow(series_header(d))
        for sample in samples:
            ts = sample.timestamps
            endpoints = sample.endpoints or ("*", "*", "*", "*", "*")
            flows_csv.writerow([
                sample.flow_id, *endpoints,
                f"{ts[0]:.9f}", f"{ts[-1]:.9f}", sample.length, sample.label,
            ])
            id_buf.seek(0)
            id_buf.truncate()
            id_csv.writerow([sample.flow_id, ""])
            prefix = id_buf.getvalue()[:-1].replace("%", "%%")
            n = sample.length
            block = np.empty((n, d + 2))
            block[:, 0] = np.arange(n)
            block[:, 1:-1] = sample.values
            block[:, -1] = ts - ts[0]
            fh_series.write(((prefix + row_fmt) * n) % tuple(block.ravel().tolist()))
            n_rows += n
    return {"flows": len(samples), "series_rows": n_rows,
            "flows_path": flows_path, "series_path": series_path}


def read_dataset(directory) -> list:
    """Read flows.csv plus a long-format series.csv into MtsSamples, in
    flows.csv order; the inverse of write_dataset. Every problem raises
    DatasetFormatError.

    The series header is an id column (flow_id or series_id), seq_index, the
    d feature columns and an optional trailing rel_ts. Each id's rows must
    carry seq_index 0..n-1; they may interleave with other ids' rows. Every
    numeric cell must be finite, and rel_ts may not decrease within a series.
    The extractor layout (flows.csv header FLOWS_HEADER) adds endpoints,
    start_ts and num_packets: its series header must be series_header(d),
    every series id must be listed in flows.csv with that many rows, and
    timestamps are start_ts + rel_ts. Any other flows.csv needs an id and a
    label column; timestamps are then rel_ts, or unit spacing without it."""
    flows_path = os.path.join(directory, "flows.csv")
    series_path = os.path.join(directory, "series.csv")
    for path in (flows_path, series_path):
        if not os.path.exists(path):
            raise DatasetFormatError(f"missing dataset file: {path}")
    extractor, entries = _read_metadata(flows_path)
    header, ids, table = _read_series(series_path)
    has_rel = header[-1] == "rel_ts"
    d = len(header) - 2 - has_rel
    if extractor and header != series_header(len(header) - 3):
        raise DatasetFormatError(f"{series_path}: unexpected header")
    if d < 1:
        raise DatasetFormatError(f"{series_path}: no feature columns")
    finite = np.isfinite(table)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise DatasetFormatError(f"{series_path}: non-finite value in the series of {ids[row]!r}")

    # one pass over the ids: each run of equal ids becomes a row range
    spans = {}
    ends = []
    for flow_id, run in groupby(ids):
        start = ends[-1] if ends else 0
        ends.append(start + sum(1 for _ in run))
        spans.setdefault(flow_id, []).append((start, ends[-1]))
    if extractor:
        listed = {entry[0] for entry in entries}
        unknown = next((i for i in spans if i not in listed), None)
        if unknown is not None:
            raise DatasetFormatError(f"{series_path}: unknown flow_id {unknown}")

    seq = table[:, 0]
    # when each id's rows form one run, one comparison checks every seq_index
    ends = np.array(ends, dtype=np.intp)
    lengths = np.diff(ends, prepend=0)
    seq_ok = len(spans) == len(ends) and np.array_equal(
        seq, np.arange(len(seq)) - np.repeat(ends - lengths, lengths))
    values = np.ascontiguousarray(table[:, 1:1 + d])
    rel = np.ascontiguousarray(table[:, -1]) if has_rel else None
    if rel is not None and seq_ok:
        # every id is one run here, so a row with seq_index > 0 follows its own series
        falls = np.flatnonzero((rel[1:] < rel[:-1]) & (seq[1:] > 0))
        if len(falls):
            _raise_falling_rel_ts(series_path, ids[falls[0] + 1])
    samples = []
    for flow_id, label, endpoints, start_ts, num_packets in entries:
        ranges = spans.get(flow_id, [])
        n = sum(b - a for a, b in ranges)
        if extractor and n != num_packets:
            raise DatasetFormatError(f"{flow_id}: {n} series rows, metadata says {num_packets}")
        if n == 0:
            raise DatasetFormatError(f"{series_path}: no rows for {flow_id!r}")
        if len(ranges) == 1:
            rows = slice(*ranges[0])
        else:
            rows = np.concatenate([np.arange(a, b) for a, b in ranges])
        if not seq_ok and not np.array_equal(seq[rows], np.arange(n)):
            raise DatasetFormatError(f"{flow_id}: seq_index not contiguous from 0")
        if not seq_ok and rel is not None and (np.diff(rel[rows]) < 0).any():
            _raise_falling_rel_ts(series_path, flow_id)
        if rel is None:
            timestamps = np.arange(n, dtype=np.float64)
        elif extractor:
            timestamps = start_ts + rel[rows]
        else:
            timestamps = rel[rows]
        samples.append(MtsSample(flow_id=flow_id, values=values[rows],
                                 timestamps=timestamps, label=label,
                                 endpoints=endpoints))
    return samples


def _raise_falling_rel_ts(path, flow_id):
    raise DatasetFormatError(f"{path}: rel_ts decreases within the series of {flow_id!r}")


def _read_metadata(path):
    """flows.csv -> (is extractor layout, [(id, label, endpoints, start_ts,
    num_packets)]); the last three are None outside the extractor layout."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        extractor = header == FLOWS_HEADER
        if header is None:
            raise DatasetFormatError(f"{path}: empty metadata")
        cols = {name: i for i, name in enumerate(header)}
        id_col = cols.get("flow_id", cols.get("series_id"))
        label_col = cols.get("label")
        if id_col is None or label_col is None:
            raise DatasetFormatError(f"{path}: need flow_id/series_id and label columns")
        entries = []
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(header):
                raise DatasetFormatError(f"{where}: {len(row)} fields, header has {len(header)}")
            endpoints = start_ts = num_packets = None
            if extractor:
                try:
                    if row[1] != "*":
                        endpoints = (row[1], int(row[2]), row[3], int(row[4]), row[5])
                    start_ts = float(row[6])
                    num_packets = int(row[8])
                except ValueError as exc:
                    raise DatasetFormatError(f"{where}: {exc}") from None
                if not math.isfinite(start_ts):
                    raise DatasetFormatError(f"{where}: non-finite start_ts of {row[id_col]!r}")
            entries.append((row[id_col], row[label_col], endpoints, start_ts, num_packets))
    duplicate = _first_duplicate(entry[0] for entry in entries)
    if duplicate is not None:
        raise DatasetFormatError(f"{path}: duplicate id {duplicate!r}")
    return extractor, entries


def _first_duplicate(ids):
    """The first id that repeats an earlier one, or None."""
    seen = set()
    for i in ids:
        if i in seen:
            return i
        seen.add(i)
    return None


def _read_series(path):
    """series.csv -> (header, id of each row, float64 table of the columns
    after the id). Numbers are parsed by one np.loadtxt call, which gives
    the same doubles as float()."""
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    if '"' in text or "\r" in text:
        # quoted ids or CR line ends: csv splits the records
        rows = list(csv.reader(io.StringIO(text, newline="")))
        header = rows[0] if rows else []
        body = rows[1:]
        ids = [row[0] if row else "" for row in body]
        numeric = [",".join(row[1:]) for row in body]
        blank = [] in body
    else:
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        header = lines[0].split(",") if lines else []
        body = lines[1:]
        ids = [line.partition(",")[0] for line in body]
        numeric = [line.partition(",")[2] for line in body]
        blank = "" in body
    if len(header) < 3 or header[0] not in ("flow_id", "series_id") \
            or header[1] != "seq_index":
        raise DatasetFormatError(f"{path}: header must start with flow_id/series_id,seq_index")
    width = len(header) - 1
    if not body:
        return header, ids, np.zeros((0, width))
    table = None
    if not blank:
        try:
            table = np.loadtxt(numeric, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if table is None or table.shape != (len(body), width):
        _raise_bad_row(path, text, len(header))
    return header, ids, table


def _raise_bad_row(path, text, n_fields):
    """Name the first blank, ragged or non-numeric row of a series.csv that
    np.loadtxt rejected."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    for row in reader:
        where = f"{path}: line {reader.line_num}"
        if not row:
            raise DatasetFormatError(f"{where}: blank row")
        if len(row) != n_fields:
            raise DatasetFormatError(f"{where}: {len(row)} fields, header has {n_fields}")
        for cell in row[1:]:
            try:
                float(cell)
            except ValueError:
                raise DatasetFormatError(f"{where}: non-numeric cell {cell!r}") from None
    raise DatasetFormatError(f"{path}: unparseable numeric cells")
