"""Per-packet feature extraction and dataset serialization.

Each finalized flow becomes one multivariate time series with a fixed-order
13-feature row per packet: direction relative to the initiator, inter-arrival
time in seconds (0 for the first packet), size in bytes at the IP layer, and
the ten TCP flag bits. Datasets are a pair of CSVs: flows.csv holds per-flow
metadata, series.csv holds the long-format feature rows with 9 fractional
digits. The series columns are named after the sample width: FEATURE_NAMES
at the extractor's 13, feature_0 ... feature_{d-1} at any other width d.

extract_mts turns a list of flows into samples in one pass: it builds the
(N, 13) feature array of the N packets of the flushed packet columns
(pcap.PacketBlock) at once, reading each flow's rows where FlowTable.flush
left them, and gives each sample its slice; no Python object is made per
packet and the columns are not copied into flow order. write_dataset
formats series rows in chunks of whole flows, each by one row template
whose per-column formats are chosen from the chunk's cells, so only
non-integral cells pay for '%.9f'. One long-format
reader, read_dataset, reads both the extractor layout and external series
(training.load_external_mts adds a profile check): it takes d from the
series header and parses series.csv in blocks of BLOCK_ROWS records, each
read by one quote-aware np.loadtxt call (ids and numbers together) and
appended to the columns the samples are sliced from: each row's series,
seq_index, a contiguous (rows, d) values array and rel_ts, each grown in
place. A file whose rows are grouped in flows.csv order, as write_dataset
writes them, is sliced as read; only interleaved rows pay one stable sort
and one gather, so either way the samples are the same bytes.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat
from types import SimpleNamespace

import numpy as np

from .flows import flow_packets
from .pcap import FLAG_SHIFTS, TCP_FLAG_NAMES, ip_to_str

FEATURE_NAMES = ["direction", "iat_seconds", "bytes", *(f"flag_{n}" for n in TCP_FLAG_NAMES)]
NUM_FEATURES = len(FEATURE_NAMES)

# series.csv rows formatted by one % call (see _series_chunks), and the most
# adjacent 0/1 columns one looked-up string covers (2^FLAG_RUN strings).
CHUNK_ROWS = 4096
FLAG_RUN = 10
# series.csv records read per np.loadtxt call (see _read_series)
BLOCK_ROWS = 1 << 13

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

    The (N, 13) feature array is built in one pass over the N rows of the
    flows' packet columns where flush left them (flows.flow_packets), and
    each sample is a slice of it: a packet's direction is +1 where its
    sender is its flow's first packet's, the IAT column is one difference
    over the timestamps (set to 0 where each flow starts), the flag columns
    are filled one bit of the flag codes at a time, at the bits of
    pcap.FLAG_SHIFTS, and each endpoint address is formatted once."""
    flows = list(flows)
    if not flows:
        return []
    packets, first, stop = flow_packets(flows)
    timestamps = packets.timestamp
    n = len(timestamps)
    # each flow's rows get its first row: the latest flow start at or before
    # them, as the flows' rows are disjoint runs (rows of no flow are unused)
    head = np.zeros(n, dtype=np.int64)
    head[first] = first
    np.maximum.accumulate(head, out=head)
    from_initiator = np.ones(n, dtype=bool)
    for column in (packets.src_hi, packets.src_lo, packets.src_port):
        from_initiator &= column == column[head]
    del head
    values = np.empty((n, NUM_FEATURES))
    values[:, 0] = np.where(from_initiator, 1.0, -1.0)
    np.subtract(timestamps[1:], timestamps[:-1], out=values[1:, 1])
    values[first, 1] = 0.0
    values[:, 2] = packets.total_bytes
    for j, shift in enumerate(FLAG_SHIFTS.tolist()):
        values[:, 3 + j] = packets.flag_code >> shift & 1
    names = {ip: ip_to_str(ip) for ip in {ip for flow in flows
                                          for ip, _ in (flow.key.endpoint_a, flow.key.endpoint_b)}}
    samples = []
    for flow, start, end in zip(flows, first.tolist(), stop.tolist()):
        (src_ip, src_port), (dst_ip, dst_port) = flow.initiator, flow.responder
        src, dst, transport = names[src_ip], names[dst_ip], flow.key.transport.value
        samples.append(MtsSample(
            flow_id=f"{src}:{src_port}-{dst}:{dst_port}-{transport}@{flow.start_ts:.6f}",
            values=values[start:end],
            timestamps=timestamps[start:end],
            label=flow.label if flow.label is not None else "BENIGN",
            endpoints=(src, src_port, dst, dst_port, transport),
        ))
    return samples


def write_dataset(samples, out_dir) -> dict:
    """Write flows.csv and series.csv under out_dir; returns a small manifest
    with row counts. Numeric fields carry exactly 9 fractional digits, and
    the series columns are named by series_header(d) for the samples' width
    d. flows.csv is one writerows call; series.csv is formatted in chunks
    (see _series_chunks), each by one row template chosen from its data."""
    samples = list(samples)
    widths = {s.width for s in samples}
    if len(widths) > 1:
        raise ValueError(f"samples mix feature widths: {sorted(widths)}")
    duplicate = _first_duplicate(s.flow_id for s in samples)
    if duplicate is not None:
        raise ValueError(f"duplicate flow_id {duplicate!r}")
    d = widths.pop() if widths else NUM_FEATURES
    os.makedirs(out_dir, exist_ok=True)
    flows_path = os.path.join(out_dir, "flows.csv")
    series_path = os.path.join(out_dir, "series.csv")
    with open(flows_path, "w", newline="", encoding="utf-8") as fh_flows, \
            open(series_path, "w", newline="", encoding="utf-8") as fh_series:
        flows_csv = lf_writer(fh_flows)
        flows_csv.writerow(FLOWS_HEADER)
        flows_csv.writerows(
            [s.flow_id, *(s.endpoints or ("*", "*", "*", "*", "*")),
             f"{s.timestamps[0]:.9f}", f"{s.timestamps[-1]:.9f}", s.length, s.label]
            for s in samples)
        lf_writer(fh_series).writerow(series_header(d))
        for pieces in _series_chunks(samples):
            fh_series.write(_format_chunk(pieces, d))
    return {"flows": len(samples), "series_rows": sum(s.length for s in samples),
            "flows_path": flows_path, "series_path": series_path}


def lf_writer(fh):
    """A csv.writer onto fh whose rows end in LF and that quotes every field
    holding CR or LF. A writer with LF row ends would leave a lone CR
    unquoted, and readers take that CR for a row end; this one writes CRLF
    rows, which quote both, and hands each row to fh with LF for its CRLF."""
    return csv.writer(SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n")),
                      lineterminator="\r\n")


def _series_chunks(samples):
    """series.csv rows in chunks of about CHUNK_ROWS: lists of (sample, start,
    stop) row ranges, each whole flow in order, a flow longer than CHUNK_ROWS
    cut into CHUNK_ROWS-row pieces."""
    chunk, rows = [], 0
    for sample in samples:
        n = sample.length
        for start in range(0, n, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, n)
            chunk.append((sample, start, stop))
            rows += stop - start
            if rows >= CHUNK_ROWS:
                yield chunk
                chunk, rows = [], 0
    if chunk:
        yield chunk


def _format_chunk(pieces, d) -> str:
    """The series.csv rows of one chunk, formatted by one % call.

    The template is chosen per column from the chunk's cells, each choice
    printing the bytes '%.9f' would: a run of adjacent columns whose cells
    are all +0.0 or 1.0 is one %s argument looked up by the bits of the run,
    an integral column without -0.0 is ',%d.000000000' over ints, and only
    the other columns pay for ',%.9f'. The flow id is a %s argument, quoted
    as lf_writer quotes the first of the fields [flow_id, ""], which keeps
    an empty id unquoted."""
    lengths = [stop - start for _, start, stop in pieces]
    rows = sum(lengths)
    table = np.empty((rows, d + 1))   # the d features, then rel_ts
    table[:, :d] = np.concatenate([s.values[a:b] for s, a, b in pieces])
    table[:, d] = np.concatenate([s.timestamps[a:b] - s.timestamps[0] for s, a, b in pieces])
    zero = table == 0.0
    zero_one = ((zero & ~np.signbit(table)) | (table == 1.0)).all(axis=0).tolist()
    integral = (((table == np.trunc(table)) & (np.abs(table) < 2.0 ** 63)).all(axis=0)
                & ~(zero & np.signbit(table)).any(axis=0)).tolist()
    templates = ["%s,%d"]
    columns = [np.repeat(np.array(_quoted_ids(s.flow_id for s, _, _ in pieces), dtype=object),
                         lengths),
               list(chain.from_iterable(range(a, b) for _, a, b in pieces))]
    j = 0
    while j <= d:
        k = 1
        if zero_one[j]:
            while k < FLAG_RUN and j + k <= d and zero_one[j + k]:
                k += 1
            templates.append("%s")
            columns.append(_zero_one_cells(k)[table[:, j:j + k].astype(np.intp)
                                              @ (1 << np.arange(k - 1, -1, -1))])
        elif integral[j]:
            templates.append(",%d.000000000")
            columns.append(table[:, j].astype(np.int64))
        else:
            templates.append(",%.9f")
            columns.append(table[:, j])
        j += k
    # one object array of the row arguments, its cells Python ints, floats and strs
    cells = np.empty((rows, len(columns)), dtype=object)
    for i, column in enumerate(columns):
        cells[:, i] = column
    return ("".join(templates) + "\n") * rows % tuple(cells.ravel().tolist())


def _quoted_ids(ids) -> list:
    """Each id as flows.csv's lf_writer writes it as the first of the fields
    [id, ""], which quotes an id holding CR or LF: one writerows call whose
    writer hands each row's text to list.append."""
    rows = []
    lf_writer(SimpleNamespace(write=rows.append)).writerows([i, ""] for i in ids)
    return [row[:-2] for row in rows]


@lru_cache(maxsize=None)
def _zero_one_cells(k) -> np.ndarray:
    """The ',%.9f' text of every run of k 0/1 cells, indexed by the number
    the run's bits spell, first cell highest."""
    if k == 0:
        return np.array([""], dtype=object)
    shorter = _zero_one_cells(k - 1)
    return np.concatenate([",0.000000000" + shorter, ",1.000000000" + shorter])


def read_dataset(directory) -> list:
    """Read flows.csv plus a long-format series.csv into MtsSamples, in
    flows.csv order; the inverse of write_dataset. Every problem raises
    DatasetFormatError.

    The series header is an id column (flow_id or series_id), seq_index, the
    d feature columns and an optional trailing rel_ts. Every id must be
    listed in flows.csv, and its rows must carry seq_index 0..n-1; they may
    interleave with other ids' rows. Every numeric cell must be finite, and
    rel_ts may not decrease within a series.
    The extractor layout (flows.csv header FLOWS_HEADER) adds endpoints,
    start_ts and num_packets: its series header must be series_header(d),
    each id must have as many rows as flows.csv's num_packets, and
    timestamps are start_ts + rel_ts. Any other flows.csv needs an id and a
    label column; timestamps are then rel_ts, or unit spacing without it.
    series.csv is RFC 4180 text with LF, CRLF or CR line ends, parsed on one
    path (_read_series) whatever its ids hold."""
    flows_path = os.path.join(directory, "flows.csv")
    series_path = os.path.join(directory, "series.csv")
    for path in (flows_path, series_path):
        if not os.path.exists(path):
            raise DatasetFormatError(f"missing dataset file: {path}")
    try:
        extractor, entries = _read_metadata(flows_path)
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{flows_path}: not UTF-8 text ({exc.reason})") from None
    # each row's series is its id's position in flows.csv
    position = {entry[0]: k for k, entry in enumerate(entries)}
    try:
        header, series, seq, values, rel, non_finite, unknown = _read_series(series_path, position)
    except UnicodeDecodeError as exc:
        # its byte position counts from the start of a decoded chunk, not of the file
        raise DatasetFormatError(f"{series_path}: not UTF-8 text ({exc.reason})") from None
    d = values.shape[1]
    if extractor and header != series_header(len(header) - 3):
        raise DatasetFormatError(f"{series_path}: unexpected header")
    if d < 1:
        raise DatasetFormatError(f"{series_path}: no feature columns")
    if non_finite is not None:
        raise DatasetFormatError(f"{series_path}: non-finite value in the series of {non_finite!r}")
    if unknown is not None:
        raise DatasetFormatError(f"{series_path}: unknown {header[0]} {unknown}")

    # each series' rows together in file order: as read when the file groups
    # them in flows.csv order, else one stable sort and one gather; every
    # check runs over all rows at once, and each sample is a slice
    counts = np.bincount(series, minlength=len(entries))
    starts = np.cumsum(counts) - counts
    # num_packets is any Python int, so the extractor's counts compare as objects
    expected = np.array([entry[4] for entry in entries], dtype=object) if extractor else counts
    wrong = np.flatnonzero((counts != expected) | (counts == 0))
    if len(wrong):
        k = wrong[0]
        flow_id, n = entries[k][0], counts[k]
        if n != expected[k]:
            raise DatasetFormatError(
                f"{series_path}: {n} series rows for {flow_id!r}, metadata says {expected[k]}")
        raise DatasetFormatError(f"{series_path}: no rows for {flow_id!r}")
    if (series[1:] < series[:-1]).any():
        order = np.argsort(series, kind="stable")
        series, seq = series[order], seq[order]
    else:
        order = None
    # each row's position within its series: 1 per row, restarting at 0 at
    # each series' first row (every series has one)
    index = np.ones(len(series), dtype=np.intp)
    index[:1] = 0
    index[starts[1:]] = 1 - counts[:-1]
    np.cumsum(index, out=index)
    gaps = np.flatnonzero(seq != index)
    if len(gaps):
        raise DatasetFormatError(f"{series_path}: seq_index not contiguous from 0 "
                                 f"in the series of {entries[series[gaps[0]]][0]!r}")
    del seq
    if rel is None:
        times = index.astype(np.float64)
    else:
        times = rel if order is None else rel[order]
        del rel
        falls = np.flatnonzero((times[1:] < times[:-1]) & (index[1:] > 0))
        if len(falls):
            flow_id = entries[series[falls[0] + 1]][0]
            raise DatasetFormatError(
                f"{series_path}: rel_ts decreases within the series of {flow_id!r}")
    del series, index
    if order is not None:
        values = values[order]
        del order
    if extractor:
        times += np.repeat([entry[3] for entry in entries], counts)
    return [MtsSample(flow_id=flow_id, values=values[a:b], timestamps=times[a:b], label=label,
                      endpoints=endpoints)
            for (flow_id, label, endpoints, _, _), a, b
            in zip(entries, starts.tolist(), (starts + counts).tolist())]


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


def _read_series(path, position):
    """series.csv -> (header, series, seq, values, rel, non_finite,
    unknown): the header; each row's series, the position of its id in
    `position` (-1 for an id it lacks); its seq_index cell; the (rows, d)
    array of its d feature cells; its rel_ts cell, or None without a rel_ts
    column; and the ids of the first row holding a non-finite cell and of
    the first row whose id `position` lacks, each None when there is no
    such row.

    After csv.reader takes the header, np.loadtxt reads blocks of
    BLOCK_ROWS records from one iterator over the file's lines, so only one
    block is held at a time. Its tokenizer unquotes ids as csv.reader does
    (doubled quotes, quoted commas and line ends, CR line ends) and takes
    just the lines of whole records, so a quoted id may span two blocks;
    its numbers are the same doubles as float(). Each block's cells are
    appended to the four columns, each grown in place, so no table of every
    cell is held beside them."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])
        if len(header) < 3 or header[0] not in ("flow_id", "series_id") \
                or header[1] != "seq_index":
            raise DatasetFormatError(f"{path}: header must start with flow_id/series_id,seq_index")
        width = len(header) - 1
        has_rel = header[-1] == "rel_ts"
        d = width - 1 - has_rel
        lines = _blank_checked(fh, path, len(header))
        series, seq, values = np.zeros(0, np.intp), np.zeros(0), np.zeros((0, d))
        rel = np.zeros(0) if has_rel else None
        non_finite = unknown = None
        with warnings.catch_warnings():
            # the call after a last full block finds no rows
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            n = BLOCK_ROWS
            while n == BLOCK_ROWS:
                try:
                    block = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None,
                                       dtype=[("id", object), ("cells", np.float64, (width,))],
                                       max_rows=BLOCK_ROWS, ndmin=1)
                except ValueError:
                    _raise_bad_row(path, len(header))
                    raise DatasetFormatError(f"{path}: unparseable numeric cells") from None
                rows, n = len(series), len(block)
                ids, cells = block["id"], block["cells"]
                where = np.fromiter(map(position.get, ids, repeat(-1)), np.intp, n)
                if unknown is None and (where < 0).any():
                    unknown = ids[np.argmax(where < 0)]
                finite = np.isfinite(cells).all(axis=1)
                if non_finite is None and not finite.all():
                    non_finite = ids[np.argmin(finite)]
                # resize reallocates in place where it can: no copy of earlier blocks
                for column, part in ((series, where), (seq, cells[:, 0]),
                                     (values, cells[:, 1:1 + d]), (rel, cells[:, -1])):
                    if column is not None:
                        column.resize((rows + n, *column.shape[1:]), refcheck=False)
                        column[rows:] = part
                del block, ids, cells, part   # before the next block is read
    return header, series, seq, values, rel, non_finite, unknown


def _blank_checked(fh, path, n_fields):
    """fh's remaining lines. The first that is only a line end, which
    np.loadtxt would skip unless it lies inside a quoted id, sends the file
    through _raise_bad_row first."""
    for line in fh:
        if line in ("\n", "\r", "\r\n"):
            _raise_bad_row(path, n_fields)
            yield line
            break
        yield line
    yield from fh


def _raise_bad_row(path, n_fields):
    """Raise for the first blank, ragged or non-numeric row of series.csv,
    named by its line; return if csv.reader finds none."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
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
