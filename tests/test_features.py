import csv
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from earlyflow import features
from earlyflow.features import (
    CHUNK_ROWS, FLAG_RUN, DatasetFormatError, FEATURE_NAMES, FLOWS_HEADER, MtsSample, extract_mts,
    read_dataset, write_dataset,
)
from earlyflow.flows import FlowTable
from earlyflow.pcap import PacketRecord, Transport, ip_to_int, ip_to_str
from earlyflow.training import load_external_mts

from gen_mts import separable_suite
from naive import naive_extract_values, naive_read_long_format, naive_write_dataset
from test_flows import rec


def one_sample(packets):
    """The MtsSample of the one flow the packets form."""
    table = FlowTable(window_secs=120.0)
    for p in packets:
        table.assign_packet(p)
    (sample,) = extract_mts(table.flush())
    return sample


def test_single_packet_flow():
    sample = one_sample([rec(3.0, flags=(0, 0, 0, 0, 0, 0, 0, 1, 0, 0))])
    assert sample.length == 1
    assert sample.values[0, 0] == 1          # initiator direction
    assert sample.values[0, 1] == 0.0        # first IAT is zero
    assert sample.values[0, 2] == 40
    assert sample.values[0, 10] == 1         # syn column
    assert sample.label == "BENIGN"


def test_burst_flow_iat_sums_to_duration():
    packets = [rec(i * 0.10 / 9, idx=i) for i in range(10)]
    sample = one_sample(packets)
    assert sample.length == 10
    assert abs(sample.values[:, 1].sum() - 0.10) < 1e-9
    assert abs(sample.timestamps[-1] - sample.timestamps[0] - 0.10) < 1e-9


def test_three_packet_flow_matches_hand_decode():
    packets = [
        rec(1.000000, src="10.0.0.1", sport=5000, dst="10.0.0.2", dport=80,
            flags=(0, 0, 0, 0, 0, 0, 0, 1, 0, 0), idx=0),
        rec(1.000500, src="10.0.0.2", sport=80, dst="10.0.0.1", dport=5000,
            flags=(0, 0, 0, 0, 1, 0, 1, 0, 0, 0), idx=1),
        rec(1.002000, src="10.0.0.1", sport=5000, dst="10.0.0.2", dport=80,
            flags=(0, 0, 0, 0, 1, 0, 0, 0, 0, 0), idx=2),
    ]
    sample = one_sample(packets)
    want = np.array([
        [1, 0.0,      40, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
        [-1, 0.0005,  40, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0],
        [1, 0.0015,   40, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    ])
    assert np.allclose(sample.values, want, atol=1e-12)
    assert sample.endpoints[0] == "10.0.0.1"
    assert sample.endpoints[4] == "tcp"


def test_udp_flow_has_zero_flags():
    sample = one_sample([rec(0.0, transport=Transport.UDP)])
    assert np.all(sample.values[0, 3:13] == 0)


def pooled_capture(rng, n_packets, n_hosts, n_ports, straggle):
    """Time-ordered records whose endpoints come from small pools of
    addresses and ports, so conversations share an address or a port, and
    some talk to themselves. Gaps sometimes pass the 120 s window (1-packet
    flows), and packets moved up to 0.9 ms earlier, inside the ordering
    tolerance, arrive as stragglers."""
    hosts = [ip_to_int(f"10.0.0.{i + 1}") for i in range(n_hosts - 1)] + [ip_to_int("2001:db8::1")]
    ports = [53, 80, 5353][:n_ports]
    records, t = [], 1.7e9
    for i in range(n_packets):
        t += float(rng.choice([0.0, 0.01, 1.0, 121.0]))
        early = float(rng.uniform(0.0, 0.9e-3)) if rng.random() < straggle else 0.0
        transport = Transport.TCP if rng.random() < 0.7 else Transport.UDP
        flags = tuple(int(b) for b in rng.random(10) < 0.3) if transport is Transport.TCP \
            else (0,) * 10
        records.append(PacketRecord(
            timestamp=round(t, 6) - early, src_ip=hosts[rng.integers(n_hosts)],
            dst_ip=hosts[rng.integers(n_hosts)], src_port=ports[rng.integers(n_ports)],
            dst_port=ports[rng.integers(n_ports)], transport=transport,
            total_bytes=int(rng.integers(40, 1500)), tcp_flags=flags, capture_index=i))
    return records


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 150), st.integers(1, 3), st.integers(1, 3),
       st.floats(0.0, 0.5))
def test_extract_mts_equals_per_packet_loop(seed, n_packets, n_hosts, n_ports, straggle):
    """One pass over every flow of a random capture, over a shuffled subset
    of them, and over the flows of two tables that split the capture gives
    each flow the rows, timestamps, endpoints and id of a per-flow oracle.
    The subset and the two tables leave flows that do not tile one block."""
    rng = np.random.default_rng(seed)
    records = pooled_capture(rng, n_packets, n_hosts, n_ports, straggle)
    table = FlowTable(window_secs=120.0)
    for record in records:
        table.assign_packet(record)
    flows = table.flush()
    check_against_oracle(flows)
    check_against_oracle([flows[i] for i in rng.permutation(len(flows))[:rng.integers(len(flows))]])
    tables = FlowTable(window_secs=120.0), FlowTable(window_secs=120.0)
    for record in records:
        tables[rng.integers(2)].assign_packet(record)
    flows = tables[0].flush() + tables[1].flush()
    check_against_oracle([flows[i] for i in rng.permutation(len(flows))])


def check_against_oracle(flows):
    samples = extract_mts(flows)
    assert len(samples) == len(flows)
    for flow, sample in zip(flows, samples):
        assert sample.values.tobytes() == naive_extract_values(flow).tobytes()
        assert sample.timestamps.tolist() == [p.timestamp for p in flow.packets]
        (src_ip, src_port), (dst_ip, dst_port) = flow.initiator, flow.responder
        src, dst, transport = ip_to_str(src_ip), ip_to_str(dst_ip), flow.key.transport.value
        assert sample.endpoints == (src, src_port, dst, dst_port, transport)
        assert sample.flow_id == f"{src}:{src_port}-{dst}:{dst_port}-{transport}@{flow.start_ts:.6f}"


def test_extract_mts_of_no_flows_is_empty():
    assert extract_mts([]) == []


def make_samples(rng, count, max_len=12):
    samples = []
    for i in range(count):
        n = int(rng.integers(1, max_len + 1))
        values = np.zeros((n, len(FEATURE_NAMES)))
        values[:, 0] = rng.choice([-1, 1], size=n)
        iat = np.abs(rng.uniform(0, 0.5, size=n))
        iat[0] = 0.0
        values[:, 1] = np.round(iat, 9)
        values[:, 2] = rng.integers(40, 1500, size=n)
        values[:, 3:13] = (rng.random((n, 10)) < 0.2).astype(float)
        ts = 100.0 + np.cumsum(values[:, 1])
        samples.append(MtsSample(
            flow_id=f"sample-{i}", values=values, timestamps=ts,
            label=rng.choice(["BENIGN", "Attack"]),
            endpoints=("10.0.0.1", 1000 + i, "10.0.0.2", 80, "tcp")))
    return samples


def test_write_empty_dataset(tmp_path):
    manifest = write_dataset([], tmp_path)
    assert manifest["flows"] == 0
    flows = (tmp_path / "flows.csv").read_text(encoding="utf-8")
    series = (tmp_path / "series.csv").read_text(encoding="utf-8")
    assert flows.count("\n") == 1 and flows.startswith("flow_id,")
    assert series.count("\n") == 1
    assert read_dataset(tmp_path) == []


def test_two_packet_sample_row_counts(tmp_path):
    rng = np.random.default_rng(0)
    sample = make_samples(rng, 1, max_len=2)[0]
    sample.values = sample.values[:2]
    write_dataset([sample], tmp_path)
    series_lines = (tmp_path / "series.csv").read_text(encoding="utf-8").strip().splitlines()
    flows_lines = (tmp_path / "flows.csv").read_text(encoding="utf-8").strip().splitlines()
    assert len(flows_lines) == 2
    assert len(series_lines) == 1 + sample.length


def test_roundtrip_hundred_random_samples(tmp_path):
    rng = np.random.default_rng(1)
    samples = make_samples(rng, 100)
    write_dataset(samples, tmp_path)
    back = read_dataset(tmp_path)
    assert len(back) == 100
    for a, b in zip(samples, back):
        assert a.flow_id == b.flow_id
        assert a.label == b.label
        assert a.endpoints == b.endpoints
        assert np.abs(a.values - b.values).max() <= 1e-9
        assert np.abs(a.timestamps - b.timestamps).max() < 1e-6


def test_read_rejects_missing_file(tmp_path):
    with pytest.raises(DatasetFormatError):
        read_dataset(tmp_path)


def test_read_rejects_header_mismatch(tmp_path):
    (tmp_path / "flows.csv").write_text("bogus\n", encoding="utf-8")
    (tmp_path / "series.csv").write_text("bogus\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError):
        read_dataset(tmp_path)


def test_read_rejects_noncontiguous_seq_index(tmp_path):
    rng = np.random.default_rng(2)
    sample = next(s for s in make_samples(rng, 10, max_len=3) if s.length >= 2)
    write_dataset([sample], tmp_path)
    series = (tmp_path / "series.csv").read_text(encoding="utf-8").splitlines()
    # drop the first data row: indices start at 1
    del series[1]
    (tmp_path / "series.csv").write_text("\n".join(series) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError):
        read_dataset(tmp_path)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_roundtrip_property(seed):
    import tempfile
    rng = np.random.default_rng(seed)
    samples = make_samples(rng, int(rng.integers(1, 6)))
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(samples, tmp)
        back = read_dataset(tmp)
    for a, b in zip(samples, back):
        assert np.abs(a.values - b.values).max() <= 1e-9
        assert abs(a.values[:, 1].sum() - (a.timestamps[-1] - a.timestamps[0])) < 1e-9
        assert b.values[0, 1] == 0.0


def test_width_4_dataset_roundtrips_with_width_4(tmp_path):
    samples = separable_suite(0, n=10, length=10, d=4)
    write_dataset(samples, tmp_path)
    header = (tmp_path / "series.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "flow_id,seq_index,feature_0,feature_1,feature_2,feature_3,rel_ts"
    for back in (read_dataset(tmp_path), load_external_mts(tmp_path)):
        assert [s.values.shape for s in back] == [(10, 4)] * 10
        for a, b in zip(samples, back):
            assert np.abs(a.values - b.values).max() <= 1e-9


def test_write_rejects_mixed_widths(tmp_path):
    samples = separable_suite(0, n=2, length=3, d=2) + separable_suite(0, n=1, length=3, d=3)
    with pytest.raises(ValueError):
        write_dataset(samples, tmp_path)


def test_write_rejects_duplicate_flow_id_before_writing(tmp_path):
    samples = separable_suite(0, n=3, length=3, d=2)
    samples[2].flow_id = samples[0].flow_id
    out = tmp_path / "ds"
    with pytest.raises(ValueError, match=re.escape(f"duplicate flow_id {samples[0].flow_id!r}")):
        write_dataset(samples, out)
    assert not out.exists()


def test_read_rejects_duplicate_id(tmp_path):
    # extractor layout: one flows.csv row repeated
    write_dataset(make_samples(np.random.default_rng(7), 2), tmp_path / "ds")
    path = break_dataset(tmp_path / "ds", "flows.csv", lambda lines: lines.append(lines[1]))
    flow_id = next(csv.reader([path.read_text(encoding="utf-8").splitlines()[1]]))[0]
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: duplicate id {flow_id!r}")):
        read_dataset(tmp_path / "ds")
    # external layout: "a" listed twice over two rows of "a"
    Path(tmp_path, "series.csv").write_text("series_id,seq_index,ch0\na,0,1.0\na,1,2.0\n",
                                            encoding="utf-8")
    Path(tmp_path, "flows.csv").write_text("series_id,label\na,x\na,x\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError,
                       match=re.escape(f"{tmp_path / 'flows.csv'}: duplicate id 'a'")):
        load_external_mts(tmp_path)


# ids and labels that csv.writer has to quote, or that % formatting would read
NASTY_TEXT = st.text(alphabet='ab1 ,"%:.-@', max_size=10)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([0.0, -0.0, 1e-10, -5e-10, 0.5e-9, 123456789.123456789]))


# how the values of one column are drawn, one kind per template the writer
# may choose: 0/1 cells, integral cells, integral or 0/1 cells with one -0.0,
# cells holding NaN or +-inf, and arbitrary cells
ZERO_ONE, INTEGRAL, NEGATIVE_ZERO, NON_FINITE, ARBITRARY = COLUMN_KINDS = range(5)
COLUMN_CELLS = {
    ZERO_ONE: st.sampled_from([0.0, 1.0]),
    INTEGRAL: st.integers(-2 ** 53, 2 ** 53).map(float),
    NON_FINITE: st.one_of(FLOATS, st.sampled_from([np.nan, np.inf, -np.inf])),
    ARBITRARY: FLOATS,
}
# series.csv blocks from one record each up to the default size: block
# boundaries fall between any two rows, quoted ids with line ends included
BLOCK_SIZES = st.one_of(st.just(features.BLOCK_ROWS), st.integers(1, 60))
# ids that are empty, or that csv quoting or % formatting has to leave intact
ID_TEXT = st.one_of(st.sampled_from(["", "%", "%s", "%%d", ",", '"', 'a,"b%d"']), NASTY_TEXT)


@st.composite
def sample_sets(draw, finite=True):
    """Up to four samples of one width. Each column (rel_ts aside) is drawn
    as one of COLUMN_KINDS over all samples, NON_FINITE only when not
    finite; the kinds may hold one run of 0/1 columns longer than
    features.FLAG_RUN."""
    d = draw(st.integers(1, FLAG_RUN + 6))
    kinds = st.sampled_from([k for k in COLUMN_KINDS if not (finite and k == NON_FINITE)])
    columns = draw(st.lists(kinds, min_size=d, max_size=d))
    if d > FLAG_RUN and draw(st.booleans()):
        run = draw(st.integers(FLAG_RUN + 1, d))
        first = draw(st.integers(0, d - run))
        columns[first:first + run] = [ZERO_ONE] * run
    # a NEGATIVE_ZERO column is all 0/1 or all integral around its one -0.0
    cells = [COLUMN_CELLS[draw(st.sampled_from([ZERO_ONE, INTEGRAL]))] if kind == NEGATIVE_ZERO
             else COLUMN_CELLS[kind] for kind in columns]
    ids = draw(st.lists(ID_TEXT, min_size=1, max_size=4, unique=True))
    integral_time = draw(st.booleans())
    samples = []
    for flow_id in ids:
        n = draw(st.integers(1, 40))
        values = np.column_stack([draw(arrays(np.float64, n, elements=elements))
                                  for elements in cells])
        if integral_time:
            start = float(draw(st.integers(1_690_000_000, 1_710_000_000)))
            steps = st.integers(0, 10).map(float)
        else:
            start, steps = draw(st.floats(1.69e9, 1.71e9)), st.floats(0, 10)
        offsets = np.cumsum(draw(arrays(np.float64, n, elements=steps)))
        endpoints = draw(st.one_of(st.none(), st.tuples(
            NASTY_TEXT, st.integers(0, 65535), NASTY_TEXT, st.integers(0, 65535),
            st.sampled_from(["tcp", "udp"]))))
        samples.append(MtsSample(flow_id=flow_id, values=values,
                                 timestamps=start + offsets - offsets[0],
                                 label=draw(NASTY_TEXT), endpoints=endpoints))
    for j, kind in enumerate(columns):
        if kind == NEGATIVE_ZERO:
            sample = draw(st.sampled_from(samples))
            sample.values[draw(st.integers(0, sample.length - 1)), j] = -0.0
        elif kind == NON_FINITE:
            sample = draw(st.sampled_from(samples))
            sample.values[draw(st.integers(0, sample.length - 1)), j] = \
                draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return samples


@settings(max_examples=150, deadline=None)
@given(sample_sets(finite=False), st.one_of(st.just(CHUNK_ROWS), st.integers(1, 60)),
       st.sampled_from([FLAG_RUN, 1, 2, 3]))
def test_block_writer_bytes_equal_csv_writer(samples, chunk_rows, flag_run):
    # small chunk sizes put chunk boundaries inside flows and between them,
    # small FLAG_RUNs split 0/1 runs over several lookups
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(features, "CHUNK_ROWS", chunk_rows), \
            mock.patch.object(features, "FLAG_RUN", flag_run):
        fast, slow = Path(tmp, "fast"), Path(tmp, "slow")
        write_dataset(samples, fast)
        naive_write_dataset(samples, slow)
        for name in ("flows.csv", "series.csv"):
            assert (fast / name).read_bytes() == (slow / name).read_bytes()


def test_writer_quotes_ids_with_line_feeds_as_csv_writer(tmp_path):
    samples = make_samples(np.random.default_rng(2), 3, max_len=4)
    samples[0].flow_id, samples[2].flow_id = "a\nb", "a\n\nb"
    write_dataset(samples, tmp_path / "fast")
    naive_write_dataset(samples, tmp_path / "slow")
    for name in ("flows.csv", "series.csv"):
        assert (tmp_path / "fast" / name).read_bytes() == (tmp_path / "slow" / name).read_bytes()


# text holding lone CRs, lone LFs, CRLFs, quotes and commas
LINE_END_TEXT = st.one_of(st.sampled_from(["\r", "\n", "\r\n", "x\ry", '"\r"', ",\r,"]),
                          st.text(alphabet='ab,"\r\n', max_size=8))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(LINE_END_TEXT, LINE_END_TEXT), min_size=1, max_size=4,
                unique_by=lambda pair: pair[0]), BLOCK_SIZES)
def test_ids_and_labels_with_line_ends_round_trip(names, block_rows):
    rng = np.random.default_rng(len(names))
    samples = make_samples(rng, len(names), max_len=3)
    for sample, (flow_id, label) in zip(samples, names):
        sample.flow_id, sample.label = flow_id, label
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(features, "BLOCK_ROWS", block_rows):
        fast, slow = Path(tmp, "fast"), Path(tmp, "slow")
        write_dataset(samples, fast)
        naive_write_dataset(samples, slow)
        for name in ("flows.csv", "series.csv"):
            assert (fast / name).read_bytes() == (slow / name).read_bytes()
        back = read_dataset(fast)
        assert [(s.flow_id, s.label) for s in back] == names
        assert_bit_equal(back, naive_read_long_format(fast))


def assert_bit_equal(samples, reference):
    assert len(samples) == len(reference)
    for s, (flow_id, label, endpoints, values, ts) in zip(samples, reference):
        assert (s.flow_id, s.label, s.endpoints) == (flow_id, label, endpoints)
        assert s.values.tobytes() == values.tobytes() and s.values.shape == values.shape
        assert s.timestamps.tobytes() == ts.tobytes()


def interleave(series_path):
    """Rewrite series.csv so the rows of its first two ids alternate, each
    id keeping its own row order."""
    lines = series_path.read_text(encoding="utf-8").splitlines(keepends=True)
    ids = [next(csv.reader([line]))[0] for line in lines[1:]]
    first, second = list(dict.fromkeys(ids))[:2]
    a = [line for i, line in zip(ids, lines[1:]) if i == first]
    b = [line for i, line in zip(ids, lines[1:]) if i == second]
    rest = [line for i, line in zip(ids, lines[1:]) if i not in (first, second)]
    mixed = [line for pair in zip(a, b) for line in pair] + a[len(b):] + b[len(a):]
    series_path.write_text("".join([lines[0]] + mixed + rest), encoding="utf-8")


@settings(max_examples=40)
@given(sample_sets(), st.booleans(), BLOCK_SIZES)
def test_reader_bit_equal_to_float_per_cell(samples, mix, block_rows):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(features, "BLOCK_ROWS", block_rows):
        write_dataset(samples, tmp)
        if mix and len(samples) >= 2:
            interleave(Path(tmp, "series.csv"))
        ref = naive_read_long_format(tmp)
        assert_bit_equal(read_dataset(tmp), ref)
        assert_bit_equal(load_external_mts(tmp), ref)


def merge_rows(series_path, permute):
    """Rewrite series.csv as a merge of its ids' row lists, each id keeping
    its own row order: permute gets one list entry per row, naming the row's
    id by its first appearance, and returns those entries in the new order."""
    lines = series_path.read_text(encoding="utf-8").splitlines(keepends=True)
    rows = {}
    for line in lines[1:]:
        rows.setdefault(next(csv.reader([line]))[0], []).append(line)
    queues = [iter(r) for r in rows.values()]
    picks = permute([k for k, r in enumerate(rows.values()) for _ in r])
    series_path.write_text("".join([lines[0]] + [next(queues[k]) for k in picks]),
                           encoding="utf-8")


@settings(max_examples=60, deadline=None)
@given(sample_sets(), st.data(), BLOCK_SIZES)
def test_reader_same_bits_for_any_merge_of_series_rows(samples, data, block_rows):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(features, "BLOCK_ROWS", block_rows):
        write_dataset(samples, tmp)
        in_order = [(s.flow_id, s.label, s.endpoints, s.values, s.timestamps)
                    for s in read_dataset(tmp)]
        assert_bit_equal(read_dataset(tmp), naive_read_long_format(tmp))
        merge_rows(Path(tmp, "series.csv"), lambda picks: data.draw(st.permutations(picks)))
        merged = read_dataset(tmp)
        assert_bit_equal(merged, in_order)
        assert_bit_equal(merged, naive_read_long_format(tmp))


def break_rows(series_path, faults):
    """Apply faults to a series.csv whose rows are grouped by id: each is
    (kind, k, r) for row r (modulo its length) of the k-th id (modulo their
    number). "count" drops the row, "seq_index" sets its seq_index to 999,
    and "rel_ts" sets its rel_ts below the row's before it (row 0 is left
    as it is)."""
    lines = series_path.read_text(encoding="utf-8").splitlines(keepends=True)
    rows = {}
    for i, line in enumerate(lines[1:], start=1):
        rows.setdefault(next(csv.reader([line]))[0], []).append(i)
    groups, width = list(rows.values()), len(lines[0].split(","))
    dropped = set()
    for kind, k, r in faults:
        group = groups[k % len(groups)]
        i = group[r % len(group)]
        # the numeric cells hold no comma, so they split off the id from the right
        cells = lines[i].rstrip("\n").rsplit(",", width - 1)
        if kind == "count":
            dropped.add(i)
        elif kind == "seq_index":
            cells[1] = "999"
        elif i != group[0]:
            cells[-1] = "-1.000000000"
        lines[i] = ",".join(cells) + "\n"
    series_path.write_text("".join(line for i, line in enumerate(lines) if i not in dropped),
                           encoding="utf-8")


def read_outcome(directory):
    """read_dataset's samples as comparable tuples, or its error message."""
    try:
        return [(s.flow_id, s.label, s.endpoints, s.values.shape, s.values.tobytes(),
                 s.timestamps.tobytes()) for s in read_dataset(directory)]
    except DatasetFormatError as exc:
        return str(exc)


FAULTS = st.lists(st.tuples(st.sampled_from(["count", "seq_index", "rel_ts"]),
                            st.integers(0, 3), st.integers(0, 39)), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(sample_sets(), FAULTS, st.data(), BLOCK_SIZES)
def test_any_merge_of_series_rows_reads_or_fails_as_grouped(samples, faults, data, block_rows):
    # a file grouped in flows.csv order is read without a gather, a merge of
    # its rows through one; both give the same bytes or the same first error
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(features, "BLOCK_ROWS", block_rows):
        write_dataset(samples, tmp)
        path = Path(tmp, "series.csv")
        break_rows(path, faults)
        grouped = read_outcome(tmp)
        merge_rows(path, lambda picks: data.draw(st.permutations(picks)))
        assert read_outcome(tmp) == grouped


def write_external(directory, series, rel_ts):
    """External layout: series_id/label metadata, optional rel_ts column."""
    d = series[0][1].shape[1]
    header = ["series_id", "seq_index"] + [f"ch{j}" for j in range(d)] + (["rel_ts"] if rel_ts else [])
    lines = [",".join(header)]
    for sid, values in series:
        for i, row in enumerate(values):
            cells = [sid, str(i)] + [repr(float(v)) for v in row]
            if rel_ts:
                cells.append(repr(0.25 * i))
            lines.append(",".join(cells))
    Path(directory, "series.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta = ["series_id,label"] + [f"{sid},c{k % 2}" for k, (sid, _) in enumerate(series)]
    Path(directory, "flows.csv").write_text("\n".join(meta) + "\n", encoding="utf-8")


@settings(max_examples=30)
@given(st.integers(1, 6), st.lists(st.integers(1, 30), min_size=2, max_size=4),
       st.booleans(), st.data(), BLOCK_SIZES)
def test_external_reader_bit_equal_to_float_per_cell(d, lengths, rel_ts, data, block_rows):
    series = [(f"s{k}", data.draw(arrays(np.float64, (n, d), elements=FLOATS)))
              for k, n in enumerate(lengths)]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(features, "BLOCK_ROWS", block_rows):
        write_external(tmp, series, rel_ts)
        interleave(Path(tmp, "series.csv"))
        ref = naive_read_long_format(tmp)
        assert_bit_equal(read_dataset(tmp), ref)
        assert_bit_equal(load_external_mts(tmp), ref)


# series.csv mutations of line i + 1, by default line 3
def _blank_series_row(lines, i=2):
    lines.insert(i, "")


def _short_series_row(lines, i=2):
    lines[i] = lines[i].rsplit(",", 1)[0]


def _non_numeric_series_cell(lines, i=2):
    lines[i] = lines[i].replace(",", ",x", 1)


def _short_flows_row(lines):
    lines[1] = lines[1].rsplit(",", 2)[0]


# (file, mutation, pattern of the error message after "<path>: ")
MALFORMED = [
    ("series.csv", _blank_series_row, r"line 3: blank row$"),
    ("series.csv", _short_series_row, r"line 3: (\d+) fields, header has (?!\1)\d+$"),
    ("series.csv", _non_numeric_series_cell, r"line 3: non-numeric cell 'x"),
    ("flows.csv", _short_flows_row, r"line 2: 8 fields, header has 10$"),
]


def break_dataset(directory, name, mutate):
    path = Path(directory, name)
    lines = path.read_text(encoding="utf-8").splitlines()
    mutate(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("name,mutate,message", MALFORMED)
def test_malformed_rows_name_file_and_line(tmp_path, name, mutate, message):
    write_dataset(make_samples(np.random.default_rng(3), 3, max_len=4), tmp_path)
    path = break_dataset(tmp_path, name, mutate)
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: ") + message):
        read_dataset(tmp_path)
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: ") + message):
        load_external_mts(tmp_path)


@pytest.mark.parametrize("block_rows", [1, 7, 100, 1000])
@pytest.mark.parametrize("first_id", ["sample-0", 'first,"quoted"\nid'])
@pytest.mark.parametrize("mutate,message", [
    (_blank_series_row, "blank row$"),
    (_short_series_row, r"(\d+) fields, header has (?!\1)\d+$"),
    (_non_numeric_series_cell, "non-numeric cell 'x"),
])
def test_malformed_row_in_a_later_block_names_its_line(tmp_path, mutate, message, first_id,
                                                       block_rows):
    # a first id with a quote and a line end makes each of its rows two
    # lines of the file
    samples = make_samples(np.random.default_rng(3), 12, max_len=6)
    samples[0].flow_id = first_id
    write_dataset(samples, tmp_path)
    path = tmp_path / "series.csv"
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    at = len(lines) - 2
    mutate(lines, at)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with mock.patch.object(features, "BLOCK_ROWS", block_rows), \
            pytest.raises(DatasetFormatError, match=re.escape(f"{path}: line {at + 1}: ") + message):
        read_dataset(tmp_path)


def _late_quoted_id(samples, path):
    samples[-1].flow_id = 'last,"quoted"'
    write_dataset(samples, path.parent)


def _late_cr_line_ends(samples, path):
    write_dataset(samples, path.parent)
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    half = len(lines) // 2
    path.write_text("\n".join(lines[:half]) + "\n" + "\r".join(lines[half:]) + "\r",
                    encoding="utf-8")


@pytest.mark.parametrize("block_rows", [1, 7, 200])
@pytest.mark.parametrize("write", [_late_quoted_id, _late_cr_line_ends])
def test_quote_or_cr_past_the_first_block_reads_as_the_whole_file_does(tmp_path, write,
                                                                       block_rows):
    write(make_samples(np.random.default_rng(8), 10, max_len=6), tmp_path / "series.csv")
    # at the default BLOCK_ROWS the whole file is one block
    whole = [(s.flow_id, s.label, s.endpoints, s.values, s.timestamps)
             for s in read_dataset(tmp_path)]
    assert_bit_equal(read_dataset(tmp_path), naive_read_long_format(tmp_path))
    with mock.patch.object(features, "BLOCK_ROWS", block_rows):
        assert_bit_equal(read_dataset(tmp_path), whole)


# quoted ids holding a line that is only a line end, which np.loadtxt would
# skip outside quotes, and a lone CR, which ends a line of the file
ODD_IDS = ["a\n\nb", "\r"]


def write_odd_ids(samples, directory):
    """write_dataset's files with samples 0 and 1 named ODD_IDS. csv.writer
    leaves a lone CR unquoted, so sample 1's id is quoted by hand."""
    samples[0].flow_id, samples[1].flow_id = ODD_IDS[0], "lone-cr"
    write_dataset(samples, directory)
    for name in ("flows.csv", "series.csv"):
        with open(Path(directory, name), "r+", newline="", encoding="utf-8") as fh:
            text = re.sub(r"(?m)^lone-cr,", '"\r",', fh.read())
            fh.seek(0)
            fh.write(text)
            fh.truncate()


def test_ids_with_a_blank_line_or_lone_cr_read_at_every_block_size(tmp_path):
    samples = make_samples(np.random.default_rng(8), 10, max_len=6)
    write_odd_ids(samples, tmp_path)
    ref = naive_read_long_format(tmp_path)
    assert [r[0] for r in ref[:2]] == ODD_IDS
    for block_rows in range(1, sum(s.length for s in samples) + 2):
        with mock.patch.object(features, "BLOCK_ROWS", block_rows):
            assert_bit_equal(read_dataset(tmp_path), ref)


@pytest.mark.parametrize("block_rows", [1, 7, features.BLOCK_ROWS])
def test_blank_row_after_odd_ids_names_its_line(tmp_path, block_rows):
    write_odd_ids(make_samples(np.random.default_rng(3), 12, max_len=6), tmp_path)
    path = tmp_path / "series.csv"
    # the file's lines as csv.reader counts them; a blank row before the last
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(fh)
    at = len(lines) - 1
    lines.insert(at, "\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(lines))
    with mock.patch.object(features, "BLOCK_ROWS", block_rows), pytest.raises(
            DatasetFormatError, match=re.escape(f"{path}: line {at + 1}: blank row") + "$"):
        read_dataset(tmp_path)


def test_invalid_utf8_in_a_later_block_names_the_file(tmp_path):
    write_dataset(make_samples(np.random.default_rng(3), 12, max_len=6), tmp_path)
    path = tmp_path / "series.csv"
    data = path.read_bytes()
    path.write_bytes(data[:-20] + b"\xff" + data[-19:])
    with mock.patch.object(features, "BLOCK_ROWS", 100), pytest.raises(
            DatasetFormatError, match=re.escape(f"{path}: not UTF-8 text (invalid start byte)") + "$"):
        read_dataset(tmp_path)


def test_read_dataset_peak_memory_within_four_times_its_samples(tmp_path):
    # tracemalloc's peak over one read_dataset call on a series.csv of at
    # least 8 blocks of rows stays within 4x the values and timestamps it
    # returns
    samples = make_samples(np.random.default_rng(9), 11000)
    assert sum(s.length for s in samples) >= 8 * features.BLOCK_ROWS
    write_dataset(samples, tmp_path)
    tracemalloc.start()
    try:
        samples = read_dataset(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * sum(s.values.nbytes + s.timestamps.nbytes for s in samples)


def test_unknown_series_id_rejected(tmp_path):
    write_dataset(make_samples(np.random.default_rng(4), 2), tmp_path)
    break_dataset(tmp_path, "series.csv", lambda lines: lines.append(
        "ghost," + lines[1].split(",", 1)[1]))
    with pytest.raises(DatasetFormatError, match="unknown flow_id ghost"):
        read_dataset(tmp_path)


def write_unlisted_external_id(directory):
    """External layout: series a and ghost, flows.csv listing only a."""
    Path(directory, "series.csv").write_text(
        "series_id,seq_index,ch0\na,0,1.0\na,1,2.0\nghost,0,3.0\nghost,1,4.0\n", encoding="utf-8")
    Path(directory, "flows.csv").write_text("series_id,label\na,x\n", encoding="utf-8")
    return Path(directory, "series.csv")


def test_unlisted_external_series_id_rejected(tmp_path):
    path = write_unlisted_external_id(tmp_path)
    for read in (read_dataset, load_external_mts):
        with pytest.raises(DatasetFormatError,
                           match=re.escape(f"{path}: unknown series_id ghost") + "$"):
            read(tmp_path)


@pytest.mark.parametrize("mix", [False, True])
def test_seq_index_gap_rejected_with_matching_row_count(tmp_path, mix):
    samples = [s for s in make_samples(np.random.default_rng(6), 12, max_len=5) if s.length >= 3]
    write_dataset(samples, tmp_path)
    if mix:
        interleave(tmp_path / "series.csv")
    # the third row of the first flow claims seq_index 7 instead of 2
    path = tmp_path / "series.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    prefix = lines[1].split(",")[0] + ",2,"
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[i] = lines[i].replace(",2,", ",7,", 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=re.escape(
            f"{path}: seq_index not contiguous from 0 in the series of "
            f"{samples[0].flow_id!r}") + "$"):
        read_dataset(tmp_path)


def write_time_axis(directory, rel_ts):
    """External dataset of series 'bad', whose rel_ts cells are rel_ts, and
    'good', whose rel_ts are 0, 1, 2, 3."""
    rows = [f"{sid},{i},{i % 2},{t}" for sid, cells in (("bad", rel_ts), ("good", "0,1,2,3"))
            for i, t in enumerate(cells.split(","))]
    Path(directory, "series.csv").write_text(
        "\n".join(["series_id,seq_index,feature_0,rel_ts"] + rows) + "\n", encoding="utf-8")
    Path(directory, "flows.csv").write_text("series_id,label\nbad,a\ngood,b\n", encoding="utf-8")


# rel_ts of series 'bad' and the error it gets
IMPOSSIBLE_TIME_AXES = [
    ("0,3,1,2", "rel_ts decreases within the series of 'bad'"),
    ("0,nan,2,3", "non-finite value in the series of 'bad'"),
    ("0,1,inf,3", "non-finite value in the series of 'bad'"),
]


@pytest.mark.parametrize("mix", [False, True])
@pytest.mark.parametrize("rel_ts,message", IMPOSSIBLE_TIME_AXES)
def test_impossible_time_axis_rejected(tmp_path, rel_ts, message, mix):
    write_time_axis(tmp_path, rel_ts)
    if mix:
        interleave(tmp_path / "series.csv")
    with pytest.raises(DatasetFormatError,
                       match=re.escape(f"{tmp_path / 'series.csv'}: {message}") + "$"):
        read_dataset(tmp_path)


def test_non_finite_start_ts_rejected(tmp_path):
    write_dataset(make_samples(np.random.default_rng(7), 2), tmp_path)
    break_dataset(tmp_path, "flows.csv", nan_start_ts)
    with pytest.raises(DatasetFormatError, match=re.escape(
            f"{tmp_path / 'flows.csv'}: line 2: non-finite start_ts of 'sample-0'") + "$"):
        read_dataset(tmp_path)


def nan_start_ts(lines):
    cells = lines[1].split(",")
    cells[FLOWS_HEADER.index("start_ts")] = "nan"
    lines[1] = ",".join(cells)


def test_row_count_must_match_num_packets(tmp_path):
    write_dataset(make_samples(np.random.default_rng(5), 2), tmp_path)
    break_dataset(tmp_path, "series.csv", lambda lines: lines.pop())
    with pytest.raises(DatasetFormatError, match="metadata says"):
        read_dataset(tmp_path)


@pytest.mark.parametrize("mix", [False, True])
def test_row_count_error_names_file_and_id(tmp_path, mix):
    samples = [s for s in make_samples(np.random.default_rng(5), 6) if s.length >= 2]
    write_dataset(samples, tmp_path)
    if mix:
        interleave(tmp_path / "series.csv")
    # the second flow loses its last row
    second = samples[1]
    path = break_dataset(tmp_path, "series.csv", lambda lines: lines.remove(next(
        line for line in lines if line.startswith(f"{second.flow_id},{second.length - 1},"))))
    with pytest.raises(DatasetFormatError, match=re.escape(
            f"{path}: {second.length - 1} series rows for {second.flow_id!r}, "
            f"metadata says {second.length}") + "$"):
        read_dataset(tmp_path)


def test_num_packets_past_int64_is_a_row_count_error(tmp_path):
    write_dataset(make_samples(np.random.default_rng(5), 2), tmp_path)
    length = read_dataset(tmp_path)[0].length

    def huge_num_packets(lines):
        cells = lines[1].split(",")
        cells[FLOWS_HEADER.index("num_packets")] = str(10 ** 30)
        lines[1] = ",".join(cells)

    break_dataset(tmp_path, "flows.csv", huge_num_packets)
    with pytest.raises(DatasetFormatError, match=re.escape(
            f"{tmp_path / 'series.csv'}: {length} series rows for 'sample-0', "
            f"metadata says {10 ** 30}") + "$"):
        read_dataset(tmp_path)


def test_listed_id_without_rows_rejected(tmp_path):
    write_unlisted_external_id(tmp_path)
    Path(tmp_path, "flows.csv").write_text("series_id,label\na,x\nghost,y\nlost,z\n",
                                           encoding="utf-8")
    with pytest.raises(DatasetFormatError,
                       match=re.escape(f"{tmp_path / 'series.csv'}: no rows for 'lost'") + "$"):
        read_dataset(tmp_path)
