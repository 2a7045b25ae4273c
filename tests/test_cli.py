import contextlib
import io
import json
import math
import shutil
import re
import tempfile
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earlyflow import earliness, features, training
from earlyflow.cli import MODEL_KEYS, TRAINING_KEYS, main
from earlyflow.features import MtsSample, read_dataset, write_dataset

from gen_mts import separable_suite
from gen_pcap import arp_frame, fragment_frame, icmp_frame, tcp_frame, udp_frame, write_pcap
from test_features import (
    IMPOSSIBLE_TIME_AXES, MALFORMED, break_dataset, make_samples, nan_start_ts, write_time_axis,
    write_unlisted_external_id,
)


@pytest.fixture
def two_flow_capture(tmp_path):
    frames = []
    # conversation 1: tcp handshake-ish burst
    for i in range(4):
        src, sport, dst, dport = ("10.0.0.1", 5000, "10.0.0.2", 80)
        if i % 2:
            src, sport, dst, dport = ("10.0.0.2", 80, "10.0.0.1", 5000)
        frames.append((100.0 + i * 0.01,
                       tcp_frame(src, sport, dst, dport, flags=("ack",))))
    # conversation 2: udp pair
    frames.append((100.5, udp_frame("10.0.0.3", 5353, "10.0.0.4", 53)))
    frames.append((100.6, udp_frame("10.0.0.4", 53, "10.0.0.3", 5353)))
    # one non-IP frame and one IP frame that is neither TCP nor UDP, both
    # skipped and counted
    frames.append((101.0, arp_frame()))
    frames.append((101.5, icmp_frame("10.0.0.1", "10.0.0.2")))
    path = tmp_path / "two_flows.pcap"
    write_pcap(path, frames)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_extract_two_flows(tmp_path, two_flow_capture, capsys):
    out_dir = tmp_path / "ds"
    code = run_cli("extract", "--pcap", two_flow_capture, "--out", out_dir)
    assert code == 0
    printed = capsys.readouterr().out
    assert "flows=2" in printed
    assert "packets=6" in printed
    assert "skipped=2" in printed
    flows_lines = (out_dir / "flows.csv").read_text(encoding="utf-8").strip().splitlines()
    assert len(flows_lines) == 3  # header + 2 flows
    assert flows_lines[1].endswith("BENIGN")


def test_extract_prints_skip_reasons_on_stderr(tmp_path, capsys):
    frames = [tcp_frame("10.0.0.1", 5000, "10.0.0.2", 80, flags=("syn",)),
              arp_frame(), arp_frame(),
              icmp_frame("10.0.0.1", "10.0.0.2"),
              fragment_frame("10.0.0.1", "10.0.0.2"), fragment_frame("10.0.0.2", "10.0.0.1"),
              fragment_frame("10.0.0.1", "10.0.0.3"),
              udp_frame("10.0.0.3", 53, "10.0.0.4", 5353)[:14 + 20 + 7]]
    path = tmp_path / "skips.pcap"
    write_pcap(path, [(100.0 + 0.01 * i, frame) for i, frame in enumerate(frames)])
    assert run_cli("extract", "--pcap", path, "--out", tmp_path / "ds") == 0
    printed = capsys.readouterr()
    # stdout stays the one summary line
    skipped = int(re.fullmatch(r"flows=1 packets=1 skipped=(\d+)\n", printed.out).group(1))
    head, _, counts = printed.err.partition(": ")
    assert head == "skipped by reason" and printed.err.count("\n") == 1
    reasons = {k: int(n) for k, n in (item.split("=") for item in counts.split())}
    assert reasons == {"not_ip": 2, "fragment": 3, "other_protocol": 1, "truncated_l4": 1}
    assert sum(reasons.values()) == skipped


def test_extract_with_labels(tmp_path, two_flow_capture):
    rules = tmp_path / "rules.csv"
    rules.write_text(
        "src_ip,src_port,dst_ip,dst_port,start_ts,end_ts,label\n"
        "10.0.0.1,*,10.0.0.2,80,0,200,Probe\n",
        encoding="utf-8")
    out_dir = tmp_path / "ds"
    assert run_cli("extract", "--pcap", two_flow_capture, "--labels", rules,
                   "--out", out_dir) == 0
    body = (out_dir / "flows.csv").read_text(encoding="utf-8")
    assert "Probe" in body
    assert "BENIGN" in body


@pytest.mark.parametrize("cells,message", [
    ("*,*,nan,nan", "non-finite start_ts"),
    ("*,*,0,nan", "non-finite end_ts"),
    ("*,*,-inf,200", "non-finite start_ts"),
    ("*,*,0,soon", "bad rule value: could not convert string to float: 'soon'"),
    ("*,http,0,200", "bad rule value: invalid literal for int() with base 10: 'http'"),
])
def test_bad_rule_exit_2_one_line_naming_its_line(tmp_path, two_flow_capture, capsys, cells,
                                                  message):
    # a NaN bound would compare false both ways and act as an open bound
    rules = tmp_path / "rules.csv"
    rules.write_text(
        "src_ip,src_port,dst_ip,dst_port,start_ts,end_ts,label\n"
        "10.0.0.1,*,10.0.0.2,80,0,200,Probe\n"
        f"*,*,{cells},ATTACK\n",
        encoding="utf-8")
    assert run_cli("extract", "--pcap", two_flow_capture, "--labels", rules,
                   "--out", tmp_path / "ds") == 2
    assert capsys.readouterr().err == f"error: {rules}:3: {message}\n"


def test_extract_missing_pcap_is_io_error(tmp_path):
    assert run_cli("extract", "--pcap", tmp_path / "nope.pcap",
                   "--out", tmp_path / "ds") == 1


def test_extract_bad_magic_is_input_error(tmp_path):
    bad = tmp_path / "bad.pcap"
    bad.write_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 20)
    assert run_cli("extract", "--pcap", bad, "--out", tmp_path / "ds") == 2


def test_extract_out_of_order_capture_is_input_error(tmp_path, capsys):
    # the second frame is 2 s older than the first, beyond the 1 ms tolerance
    path = tmp_path / "backwards.pcap"
    write_pcap(path, [(100.0, udp_frame("10.0.0.3", 5353, "10.0.0.4", 53)),
                      (98.0, udp_frame("10.0.0.4", 53, "10.0.0.3", 5353))])
    assert run_cli("extract", "--pcap", path, "--out", tmp_path / "ds") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_extract_same_capture_twice_is_input_error(tmp_path, two_flow_capture, capsys):
    # every flow would be written twice under one flow_id
    out_dir = tmp_path / "ds"
    assert run_cli("extract", "--pcap", two_flow_capture, "--pcap", two_flow_capture,
                   "--out", out_dir) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: duplicate flow_id ") and err.count("\n") == 1
    assert not out_dir.exists()


def test_flows_never_span_capture_files(tmp_path, capsys):
    """Each --pcap file gets its own flow table: a conversation split over two
    captures becomes two flows, and two captures that open the same
    conversation at the same instant collide on the flow id."""
    frames = []
    for i in range(4):
        ends = [("10.0.0.1", 5000), ("10.0.0.2", 80)]
        (src, sport), (dst, dport) = ends[::-1] if i % 2 else ends
        frames.append((100.0 + 0.01 * i, tcp_frame(src, sport, dst, dport, flags=("ack",))))
    paths = [tmp_path / name for name in ("first.pcap", "second.pcap", "again.pcap")]
    for path, part in zip(paths, (frames[:2], frames[2:], frames[:1])):
        write_pcap(path, part)

    out_dir = tmp_path / "split"
    assert run_cli("extract", "--pcap", paths[0], "--pcap", paths[1], "--out", out_dir) == 0
    assert "flows=2 packets=4" in capsys.readouterr().out
    rows = (out_dir / "flows.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [
        "10.0.0.1:5000-10.0.0.2:80-tcp@100.000000", "10.0.0.1:5000-10.0.0.2:80-tcp@100.020000"]
    assert [row.split(",")[8] for row in rows] == ["2", "2"]

    assert run_cli("extract", "--pcap", paths[0], "--pcap", paths[2],
                   "--out", tmp_path / "clash") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: duplicate flow_id ") and err.count("\n") == 1


def write_conversations(path):
    """A capture of 500 conversations of 40 packets each, their packets
    interleaved in time, every third conversation UDP; returns the packet
    count."""
    frames = []
    for c in range(500):
        client, server = f"10.0.{c // 250}.{c % 250 + 1}", "10.1.0.1"
        if c % 3:
            out = tcp_frame(client, 1024 + c, server, 80, flags=("ack", "psh"))
            back = tcp_frame(server, 80, client, 1024 + c, flags=("ack",))
        else:
            out = udp_frame(client, 1024 + c, server, 53)
            back = udp_frame(server, 53, client, 1024 + c)
        frames += [(1000.0 + 0.5 * i + 0.001 * c, back if i % 2 else out) for i in range(40)]
    frames.sort(key=lambda frame: frame[0])
    write_pcap(path, frames)
    return len(frames)


def test_extract_peak_memory_per_packet(tmp_path, capsys):
    # tracemalloc's peak over one extract of 20,000 packets in 500 flows:
    # the flushed packet columns (about 81 bytes a packet) and the feature
    # array (104) with no gathered copy of the columns beside them. Gathering
    # the columns into flow order, as extract once did, peaks at about 385
    # bytes a packet.
    packets = write_conversations(tmp_path / "capture.pcap")
    tracemalloc.start()
    try:
        assert run_cli("extract", "--pcap", tmp_path / "capture.pcap",
                       "--out", tmp_path / "out") == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "flows=500 packets=20000" in capsys.readouterr().out
    assert peak <= 340 * packets


def test_read_dataset_peak_memory_per_byte_returned(tmp_path):
    # tracemalloc's peak over one read_dataset of an extract of 20,000
    # packets in 500 flows, read in blocks of 2,048 rows, as a multiple of
    # the values and timestamps it returns: about 1.42, the columns the
    # samples are sliced from with each row's series and seq_index beside
    # them, one block of rows, and the metadata. Reading a table of every
    # cell and gathering the samples from it, as read_dataset once did,
    # peaks at about 2.40.
    write_conversations(tmp_path / "capture.pcap")
    assert run_cli("extract", "--pcap", tmp_path / "capture.pcap", "--out", tmp_path / "out") == 0
    with mock.patch.object(features, "BLOCK_ROWS", 2048):
        tracemalloc.start()
        try:
            samples = read_dataset(tmp_path / "out")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 1.6 * sum(s.values.nbytes + s.timestamps.nbytes for s in samples)


@pytest.fixture
def toy_dataset(tmp_path):
    samples = separable_suite(0, n=60, length=10, d=4)
    data_dir = tmp_path / "toy"
    write_dataset(samples, data_dir)
    return data_dir


def test_train_eval_latents_pipeline(tmp_path, toy_dataset, capsys):
    ckpt = tmp_path / "model.ckpt"
    history = tmp_path / "history.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"d_model": 8, "n_heads": 2, "n_blocks": 1, "d_ff": 16, "dropout": 0.0},
        "training": {"max_epochs": 3, "patience": 5},
    }), encoding="utf-8")

    assert run_cli("train", "--data", toy_dataset, "--prefix-packets", 4,
                   "--config", config, "--out", ckpt, "--history", history,
                   "--seed", 7) == 0
    assert ckpt.exists() and (tmp_path / "model.ckpt.bin").exists()
    assert history.read_text(encoding="utf-8").startswith("epoch,loss,val_macro_f1")
    capsys.readouterr()

    assert run_cli("eval", "--data", toy_dataset, "--ckpt", ckpt,
                   "--prefix-packets", 4, "--seed", 7) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "prefix,mean_e,mean_de,accuracy,macro_f1,detection_rate"
    assert out[1].split(",")[0] == "4"

    latents = tmp_path / "latents.csv"
    assert run_cli("latents", "--data", toy_dataset, "--ckpt", ckpt,
                   "--prefix-packets", 4, "--out", latents) == 0
    lines = latents.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 61
    assert len(lines[1].split(",")) == 2 + 8


def test_train_takes_each_prefix_once(tmp_path, toy_dataset, monkeypatch):
    # sizing max_len reads prefix lengths; only training builds the prefixes
    calls = []
    take_prefix = earliness.take_prefix

    def counting(*args, **kwargs):
        calls.append(args[0].flow_id)
        return take_prefix(*args, **kwargs)

    for module in (earliness, training):
        monkeypatch.setattr(module, "take_prefix", counting)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"d_model": 8, "n_heads": 2, "n_blocks": 1, "d_ff": 16},
        "training": {"max_epochs": 1, "patience": 1},
    }), encoding="utf-8")
    assert run_cli("train", "--data", toy_dataset, "--prefix-duration", 4.5,
                   "--config", config, "--out", tmp_path / "x.ckpt") == 0
    assert len(calls) == 60 and len(set(calls)) == 60


def test_train_rerun_byte_identical(tmp_path, toy_dataset):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"d_model": 8, "n_heads": 2, "n_blocks": 1, "d_ff": 16},
        "training": {"max_epochs": 2, "patience": 5},
    }), encoding="utf-8")
    outs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.ckpt"
        history = tmp_path / f"{tag}.csv"
        assert run_cli("train", "--data", toy_dataset, "--prefix-packets", 4,
                       "--config", config, "--out", ckpt, "--history", history,
                       "--seed", 3) == 0
        outs.append((ckpt.read_bytes(), (tmp_path / f"{tag}.ckpt.bin").read_bytes(),
                     history.read_bytes()))
    assert outs[0] == outs[1]


def test_sweep_single_point_matches_eval(tmp_path, toy_dataset, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"d_model": 8, "n_heads": 2, "n_blocks": 1, "d_ff": 16, "dropout": 0.0},
        "training": {"max_epochs": 2, "patience": 5},
    }), encoding="utf-8")

    assert run_cli("sweep", "--data", toy_dataset, "--mode", "packets",
                   "--grid", "4", "--config", config, "--seed", 9) == 0
    sweep_out = capsys.readouterr().out.strip().splitlines()

    ckpt = tmp_path / "p.ckpt"
    assert run_cli("train", "--data", toy_dataset, "--prefix-packets", 4,
                   "--config", config, "--out", ckpt, "--seed", 9) == 0
    capsys.readouterr()
    assert run_cli("eval", "--data", toy_dataset, "--ckpt", ckpt,
                   "--prefix-packets", 4, "--split", "test", "--seed", 9) == 0
    eval_out = capsys.readouterr().out.strip().splitlines()
    assert sweep_out == eval_out


def test_sweep_rows_sorted_by_earliness(tmp_path, toy_dataset, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"d_model": 8, "n_heads": 2, "n_blocks": 1, "d_ff": 16},
        "training": {"max_epochs": 1, "patience": 2},
    }), encoding="utf-8")
    out_csv = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--data", toy_dataset, "--mode", "packets",
                   "--grid", "8,2,4", "--config", config, "--out", out_csv,
                   "--seed", 1) == 0
    capsys.readouterr()
    lines = out_csv.read_text(encoding="utf-8").strip().splitlines()
    earliness = [float(line.split(",")[1]) for line in lines[1:]]
    assert earliness == sorted(earliness)
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "4", "8"]


def test_sweep_jobs_2_writes_jobs_1_bytes(tmp_path, toy_dataset, capsys):
    # the process pool gets every PrefixSpec pickled
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"d_model": 8, "n_heads": 2, "n_blocks": 1, "d_ff": 16},
        "training": {"max_epochs": 1, "patience": 2},
    }), encoding="utf-8")
    outs = []
    for jobs in (1, 2):
        out_csv = tmp_path / f"sweep{jobs}.csv"
        assert run_cli("sweep", "--data", toy_dataset, "--mode", "duration",
                       "--grid", "4.5,0,1.5", "--config", config, "--out", out_csv,
                       "--jobs", jobs, "--seed", 2) == 0
        outs.append(out_csv.read_text(encoding="utf-8"))
    assert outs[0] == outs[1]
    assert [line.split(",")[0] for line in outs[0].splitlines()[1:]] == ["0", "1.5", "4.5"]


def sweep_config(tmp_path, **model):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"d_model": 8, "n_heads": 2, "n_blocks": 1, "d_ff": 16, **model},
        "training": {"max_epochs": 1, "patience": 2},
    }), encoding="utf-8")
    return config


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_jobs_below_one_exit_2_one_line(tmp_path, toy_dataset, capsys, jobs):
    assert run_cli("sweep", "--data", toy_dataset, "--mode", "packets", "--grid", "2,4",
                   "--config", sweep_config(tmp_path), "--jobs", jobs) == 2
    assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"


@pytest.mark.parametrize("mode,grid,late", [("packets", "1,2,9", "9"),
                                             ("duration", "0.1,1,9", "9")])
def test_sweep_grid_past_max_len_exit_2_before_training(tmp_path, toy_dataset, capsys,
                                                         monkeypatch, mode, grid, late):
    calls = []
    monkeypatch.setattr(training, "train", lambda *args, **kwargs: calls.append(args))
    assert run_cli("sweep", "--data", toy_dataset, "--mode", mode, "--grid", grid,
                   "--config", sweep_config(tmp_path, max_len=3)) == 2
    assert calls == []
    assert capsys.readouterr().err == f"error: grid points exceed max_len 3: {late}\n"


def test_sweep_empty_test_split_exit_2_before_training(tmp_path, capsys, monkeypatch):
    # 4 samples a class put 3 in train, 1 in validation and none in test
    data_dir = tmp_path / "small"
    write_dataset(separable_suite(0, n=8), data_dir)
    calls = []
    monkeypatch.setattr(training, "train", lambda *args, **kwargs: calls.append(args))
    assert run_cli("sweep", "--data", data_dir, "--mode", "packets", "--grid", "2,4",
                   "--config", sweep_config(tmp_path)) == 2
    assert calls == []
    assert capsys.readouterr().err == \
        "error: the test split is empty (class sizes 'class0'=4, 'class1'=4)\n"


@pytest.mark.parametrize("per_class,split", [(4, "test"), (3, "val")])
def test_eval_empty_split_exit_2_one_line_naming_it(tmp_path, capsys, per_class, split):
    data_dir = tmp_path / "small"
    write_dataset(separable_suite(0, n=2 * per_class), data_dir)
    ckpt = tmp_path / "model.ckpt"
    assert run_cli("train", "--data", data_dir, "--prefix-packets", 2,
                   "--config", sweep_config(tmp_path), "--out", ckpt) == 0
    capsys.readouterr()
    assert run_cli("eval", "--data", data_dir, "--ckpt", ckpt, "--prefix-packets", 2,
                   *(["--split", split] if split != "test" else [])) == 2
    assert capsys.readouterr().err == (f"error: the {split} split is empty "
                                       f"(class sizes 'class0'={per_class}, "
                                       f"'class1'={per_class})\n")


def test_eval_empty_dataset_exit_2_one_line(tmp_path, capsys):
    # an empty dataset fails before the checkpoint is read, as in train and sweep
    write_dataset([], tmp_path / "empty")
    assert run_cli("eval", "--data", tmp_path / "empty", "--ckpt", tmp_path / "none.ckpt",
                   "--prefix-packets", 2, "--split", "all") == 2
    assert capsys.readouterr().err == "error: dataset is empty\n"


def test_latents_empty_dataset_exit_2_one_line(tmp_path, capsys):
    # as in eval: an empty dataset fails before the checkpoint is read, and no
    # header-only CSV is written
    write_dataset([], tmp_path / "empty")
    out = tmp_path / "latents.csv"
    assert run_cli("latents", "--data", tmp_path / "empty", "--ckpt", tmp_path / "none.ckpt",
                   "--prefix-packets", 2, "--out", out) == 2
    assert capsys.readouterr().err == "error: dataset is empty\n"
    assert not out.exists()


def test_sweep_count_point_past_every_sample_trains_like_train(tmp_path, toy_dataset):
    # the toy samples have 10 rows, so a 100-packet prefix is the whole sample
    config = sweep_config(tmp_path)
    assert run_cli("train", "--data", toy_dataset, "--prefix-packets", 100,
                   "--config", config, "--out", tmp_path / "x.ckpt") == 0
    assert run_cli("sweep", "--data", toy_dataset, "--mode", "packets", "--grid", "2,100",
                   "--config", config) == 0


def test_invalid_config_key_exit_2(tmp_path, toy_dataset):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"bogus_knob": 1}}), encoding="utf-8")
    assert run_cli("train", "--data", toy_dataset, "--prefix-packets", 4,
                   "--config", config, "--out", tmp_path / "x.ckpt") == 2


@pytest.mark.parametrize("body", [
    {"model": 5},
    [1],
    {"training": []},
    {"model": {"n_heads": 0}},
    {"model": {"d_model": "x"}},
    {"model": {"dropout": "x"}},
    {"model": {"use_frequency_heads": "no"}},
    {"training": {"max_epochs": "z"}},
    {"training": {"batch_size": 0}},
    {"training": {"patience": 2.5}},
    {"training": {"learning_rate": float("nan")}},
    {"training": {"learning_rate": float("inf")}},
    {"training": {"learning_rate": -1e-3}},
    {"model": {"max_len": 10 ** 9}},
    {"model": {"d_model": 10 ** 9}},
    {"model": {"d_ff": 10 ** 9}},
    {"model": {"n_blocks": 10 ** 9}},
    # JSON booleans are no numbers, though bool is an int subclass
    {"model": {"n_heads": True, "d_model": 8}},
    {"model": {"d_model": True}},
    {"model": {"d_ff": True}},
    {"model": {"n_blocks": True}},
    {"model": {"dropout": False}},
    {"training": {"batch_size": True}},
    {"training": {"learning_rate": True}},
], ids=repr)
def test_bad_config_value_exit_2_one_line(tmp_path, toy_dataset, capsys, body):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body), encoding="utf-8")
    start = time.perf_counter()  # sizes are rejected before anything is allocated
    assert run_cli("train", "--data", toy_dataset, "--prefix-packets", 4,
                   "--config", config, "--out", tmp_path / "x.ckpt") == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("raw, message", [
    (b'{"model":\n', "Expecting value: line 2 column 1 (char 10)"),
    (b'{"model": {"d_model": "\xff"}}', "'utf-8' codec can't decode byte 0xff in position 23"),
], ids=["invalid-json", "not-utf-8"])
def test_unreadable_config_names_the_file_exit_2_one_line(tmp_path, toy_dataset, capsys, raw,
                                                          message):
    config = tmp_path / "config.json"
    config.write_bytes(raw)
    assert run_cli("train", "--data", toy_dataset, "--prefix-packets", 4,
                   "--config", config, "--out", tmp_path / "x.ckpt") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: {message}") and err.count("\n") == 1, err


def test_non_utf8_flows_csv_names_the_file_exit_2(tmp_path, toy_dataset, capsys):
    flows_csv = toy_dataset / "flows.csv"
    data = flows_csv.read_bytes()
    flows_csv.write_bytes(data[:-20] + b"\xff" + data[-19:])
    assert run_cli("train", "--data", toy_dataset, "--prefix-packets", 4,
                   "--out", tmp_path / "x.ckpt") == 2
    assert capsys.readouterr().err == f"error: {flows_csv}: not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("command", ["train", "extract", "sweep", "sweep-late-nan"])
def test_nan_range_flag_exit_2_one_line(tmp_path, toy_dataset, two_flow_capture, capsys,
                                        command):
    argv = {
        "train": ["train", "--data", toy_dataset, "--prefix-duration", "nan",
                  "--out", tmp_path / "x.ckpt"],
        "extract": ["extract", "--pcap", two_flow_capture, "--window-secs", "nan",
                    "--out", tmp_path / "ds"],
        "sweep": ["sweep", "--data", toy_dataset, "--mode", "duration", "--grid", "nan,1",
                  "--out", tmp_path / "s.csv"],
        "sweep-late-nan": ["sweep", "--data", toy_dataset, "--mode", "duration",
                           "--grid", "1,nan", "--out", tmp_path / "s.csv"],
    }[command]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert not any(tmp_path.glob("x.ckpt*")) and not (tmp_path / "s.csv").exists()
    assert not (tmp_path / "ds").exists()


def test_prefix_beyond_memory_budget_exit_2_one_line(tmp_path, capsys):
    # one prefix of 20,000 packets would need about 20,001^2 attention cells
    rows = 20_000
    write_dataset([MtsSample(flow_id="long", values=np.zeros((rows, 2)),
                             timestamps=np.arange(rows, dtype=np.float64), label="a")],
                  tmp_path / "ds")
    start = time.perf_counter()
    assert run_cli("train", "--data", tmp_path / "ds", "--prefix-packets", rows,
                   "--out", tmp_path / "x.ckpt") == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: .*model too large.*\n", err), err
    assert not any(tmp_path.glob("x.ckpt*"))


def test_missing_data_dir_exit_2(tmp_path):
    assert run_cli("train", "--data", tmp_path / "absent", "--prefix-packets", 4,
                   "--out", tmp_path / "x.ckpt") == 2


@pytest.mark.parametrize("name,mutate,message", MALFORMED)
def test_malformed_dataset_row_exit_2_one_line(tmp_path, toy_dataset, capsys, name, mutate,
                                               message):
    path = break_dataset(toy_dataset, name, mutate)
    assert run_cli("train", "--data", toy_dataset, "--prefix-packets", 4,
                   "--out", tmp_path / "x.ckpt") == 2
    err = capsys.readouterr().err
    assert re.match(re.escape(f"error: {path}: ") + message, err) and err.count("\n") == 1


def test_unlisted_external_series_id_exit_2_one_line(tmp_path, capsys):
    data = tmp_path / "ds"
    data.mkdir()
    path = write_unlisted_external_id(data)
    assert run_cli("train", "--data", data, "--prefix-packets", 2,
                   "--out", tmp_path / "x.ckpt") == 2
    assert capsys.readouterr().err == f"error: {path}: unknown series_id ghost\n"
    assert not any(tmp_path.glob("x.ckpt*"))


@pytest.mark.parametrize("rel_ts", [rel_ts for rel_ts, _ in IMPOSSIBLE_TIME_AXES] + [None])
def test_impossible_time_axis_exit_2_one_line(tmp_path, capsys, rel_ts):
    # rel_ts None: a NaN start_ts in an extractor-layout flows.csv
    data = tmp_path / "ds"
    if rel_ts is None:
        write_dataset(make_samples(np.random.default_rng(7), 4), data)
        break_dataset(data, "flows.csv", nan_start_ts)
    else:
        data.mkdir()
        write_time_axis(data, rel_ts)
    assert run_cli("train", "--data", data, "--prefix-duration", 1.5,
                   "--out", tmp_path / "x.ckpt") == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: .*(non-finite|decreases).*\n", err), err
    assert not any(tmp_path.glob("x.ckpt*"))


def test_bad_grid_exit_2(tmp_path, toy_dataset):
    assert run_cli("sweep", "--data", toy_dataset, "--mode", "packets",
                   "--grid", "2,banana", "--out", tmp_path / "s.csv") == 2


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["train", "--prefix-packets", "4"],
    ["train", "--data", "{data}", "--prefix-packets", "x", "--out", "{tmp}/x.ckpt"],
    ["train", "--data", "{data}", "--prefix-packets", "4", "--prefix-duration", "1",
     "--out", "{tmp}/x.ckpt"],
    ["train", "--data", "{data}", "--prefix-packets", "4", "--out", "{tmp}/x.ckpt", "--bogus"],
    ["train", "--data", "{data}", "--prefix-duration", "-1e5x", "--out", "{tmp}/x.ckpt"],
    ["eval", "--data", "{data}", "--ckpt", "{tmp}/x.ckpt", "--prefix-packets", "4",
     "--split", "nope"],
    ["extract", "--pcap", "{tmp}/a.pcap", "--window-secs", "soon", "--out", "{tmp}/ds"],
    ["latents", "--data", "{data}", "--ckpt", "{tmp}/x.ckpt", "--prefix-packets", "4",
     "--out", "{tmp}/l.csv", "--seed", "1"],
], ids=["no-command", "unknown-command", "missing-required", "bad-int", "exclusive-pair",
        "unknown-option", "bad-negative-float", "bad-choice", "bad-float", "latents-seed"])
def test_argparse_rejection_exit_2_one_line(tmp_path, toy_dataset, capsys, argv):
    argv = [a.format(data=toy_dataset, tmp=tmp_path) for a in argv]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "usage:" not in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == [toy_dataset]


@pytest.mark.parametrize("value", ["-1e-05", "-1E+3", "-.5", "-2.", "-inf", "-nan"])
def test_negative_flag_value_read_as_value(tmp_path, toy_dataset, capsys, value):
    """A negative value given as its own argument reaches PrefixSpec exactly
    as --flag=value does."""
    common = ["train", "--data", toy_dataset, "--out", tmp_path / "x.ckpt"]
    assert run_cli(*common, "--prefix-duration", value) == 2
    separate = capsys.readouterr().err
    assert run_cli(*common, f"--prefix-duration={value}") == 2
    assert separate == capsys.readouterr().err
    assert separate.startswith("error: duration prefix") and separate.count("\n") == 1


def test_default_window_is_two_minutes():
    from earlyflow.cli import build_parser
    args = build_parser().parse_args(["extract", "--pcap", "x.pcap", "--out", "d"])
    assert args.window_secs == 120.0


def test_default_seed_is_42():
    from earlyflow.cli import build_parser
    args = build_parser().parse_args(
        ["train", "--data", "d", "--prefix-packets", "4", "--out", "c"])
    assert args.seed == 42


# ---------------------------------------------------------------------------
# property: any configuration ends in exit 0, 1 or 2 with at most one line

@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("tiny")
    write_dataset(separable_suite(1, n=12, length=6, d=3), data_dir)
    return data_dir


JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 12) | st.text(max_size=3)
                | st.floats(allow_nan=True, allow_infinity=True))
JSON_VALUES = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=2) \
    | st.dictionaries(st.text(max_size=3), JSON_SCALARS, max_size=2)


def mostly(usual, odd=JSON_VALUES):
    """usual three times in four, else odd."""
    return st.integers(0, 3).flatmap(lambda i: odd if i == 0 else usual)


# sizes and epochs stay small so every example trains in milliseconds
MODEL_VALUES = {
    "d_model": mostly(st.integers(1, 8)),
    "n_heads": mostly(st.integers(1, 4)),
    "n_blocks": mostly(st.integers(1, 2)),
    "d_ff": mostly(st.integers(1, 8)),
    "max_len": mostly(st.integers(1, 8)),
    "dropout": mostly(st.floats(0.0, 1.0)),
    "use_frequency_heads": mostly(st.booleans()),
}
TRAINING_VALUES = {
    "learning_rate": mostly(st.floats(0.0, 1e6)),
    "batch_size": mostly(st.integers(1, 40)),
    "max_epochs": st.integers(-1, 2) | st.floats() | st.text(max_size=2),
    "patience": mostly(st.integers(1, 3)),
}
assert set(MODEL_VALUES) == MODEL_KEYS and set(TRAINING_VALUES) == TRAINING_KEYS
configs = mostly(st.fixed_dictionaries({}, optional={
    "model": mostly(st.fixed_dictionaries({}, optional=MODEL_VALUES)),
    "training": mostly(st.fixed_dictionaries({}, optional=TRAINING_VALUES)),
}))
prefix_flags = st.one_of(
    st.tuples(st.just("--prefix-packets"), mostly(st.integers(1, 8), st.integers(-2, 10 ** 12))),
    st.tuples(st.just("--prefix-duration"),
              mostly(st.floats(0.0, 8.0), st.floats(allow_nan=True, allow_infinity=True))))
seeds = mostly(st.integers(0, 2 ** 32), st.integers(-2, 2 ** 70))


@settings(max_examples=60)
@given(configs, prefix_flags, seeds)
def test_train_any_config_exits_cleanly(tiny_dataset, config, prefix, seed):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = f"{tmp}/config.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code = main(["train", "--data", str(tiny_dataset), prefix[0], str(prefix[1]),
                     "--config", path, "--out", f"{tmp}/x.ckpt", "--seed", str(seed)])
    assert code in (0, 1, 2)
    lines = stderr.getvalue().splitlines()
    assert len(lines) <= (code != 0) and not caught, (lines, [str(w.message) for w in caught])


# ---------------------------------------------------------------------------
# property: any edit of a checkpoint manifest ends eval and latents in exit
# 0, or in exit 2 with one `error:` line

@pytest.fixture(scope="module")
def tiny_checkpoint(tiny_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    config = out.parent / "config.json"
    config.write_text(json.dumps({
        "model": {"d_model": 4, "n_heads": 2, "n_blocks": 1, "d_ff": 4},
        "training": {"max_epochs": 1},
    }), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--data", str(tiny_dataset), "--prefix-packets", "4",
                     "--config", str(config), "--out", str(out)]) == 0
    return out


def edited(data, value):
    """value with one member, at any depth, replaced by a JSON value or removed."""
    if isinstance(value, dict) and value:
        key = data.draw(st.sampled_from(sorted(value)))
    elif isinstance(value, list) and value:
        key = data.draw(st.integers(0, len(value) - 1))
    else:
        return data.draw(JSON_VALUES)
    value = value.copy()
    how = data.draw(st.sampled_from(["inside", "replace", "remove"]))
    if how == "remove":
        del value[key]
    else:
        value[key] = edited(data, value[key]) if how == "inside" else data.draw(JSON_VALUES)
    return value


@pytest.mark.parametrize("key", ["max_len", "d_model", "d_ff", "n_blocks"])
def test_oversized_manifest_config_exit_2_at_once(tmp_path, tiny_dataset, tiny_checkpoint,
                                                   capsys, key):
    manifest = json.loads(tiny_checkpoint.read_text(encoding="utf-8"))
    manifest["config"][key] = 10 ** 9
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_text(json.dumps(manifest), encoding="utf-8")
    shutil.copyfile(f"{tiny_checkpoint}.bin", f"{ckpt}.bin")
    for command in ("eval", "latents"):
        start = time.perf_counter()
        assert run_cli(command, "--data", tiny_dataset, "--ckpt", ckpt, "--prefix-packets", 4,
                       "--out", tmp_path / "out.csv") == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "model too large" in err and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("key,value", [("n_heads", True), ("d_model", True),
                                       ("n_blocks", True), ("dropout", False)])
def test_boolean_manifest_config_exit_2_one_line(tmp_path, tiny_dataset, tiny_checkpoint,
                                                 capsys, key, value):
    manifest = json.loads(tiny_checkpoint.read_text(encoding="utf-8"))
    manifest["config"][key] = value
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_text(json.dumps(manifest), encoding="utf-8")
    shutil.copyfile(f"{tiny_checkpoint}.bin", f"{ckpt}.bin")
    for command in ("eval", "latents"):
        assert run_cli(command, "--data", tiny_dataset, "--ckpt", ckpt, "--prefix-packets", 4,
                       "--out", tmp_path / "out.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: malformed manifest: {key} must be") \
            and err.endswith(f", got {value!r}\n") and err.count("\n") == 1, err


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_checkpoint_exit_2_one_line(tmp_path, tiny_dataset, tiny_checkpoint, capsys,
                                              bad):
    # two parameters of the blob patched; the message names the manifest and
    # the first of them in parameter_layout order
    manifest = json.loads(tiny_checkpoint.read_text(encoding="utf-8"))
    starts, offset = {}, 0
    for entry in manifest["parameters"]:
        starts[entry["name"]] = offset
        offset += math.prod(entry["shape"])
    blob = np.fromfile(f"{tiny_checkpoint}.bin", dtype="<f8")
    blob[starts["head.bias"]] = bad
    blob[starts["blocks.0.ff.w1"] + 1] = bad
    ckpt = tmp_path / "model.ckpt"
    shutil.copyfile(tiny_checkpoint, ckpt)
    blob.tofile(f"{ckpt}.bin")
    for command in ("eval", "latents"):
        assert run_cli(command, "--data", tiny_dataset, "--ckpt", ckpt, "--prefix-packets", 4,
                       "--out", tmp_path / "out.csv") == 2
        err = capsys.readouterr().err
        assert err == f"error: {ckpt}: parameter blocks.0.ff.w1 holds a non-finite value\n"


def test_overflowing_checkpoint_exit_2_one_line(tmp_path, tiny_dataset, tiny_checkpoint, capsys):
    # a finite weight of 1e308 overflows the first product it enters; the
    # forward raises on it at once, and the one line names the checkpoint
    blob = np.fromfile(f"{tiny_checkpoint}.bin", dtype="<f8")
    blob[0] = 1e308     # input_proj.weight[0, 0]
    ckpt = tmp_path / "model.ckpt"
    shutil.copyfile(tiny_checkpoint, ckpt)
    blob.tofile(f"{ckpt}.bin")
    for command in ("eval", "latents"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(command, "--data", tiny_dataset, "--ckpt", ckpt, "--prefix-packets", 4,
                           "--out", tmp_path / "out.csv") == 2
        err = capsys.readouterr().err
        assert not caught, [str(w.message) for w in caught]
        assert re.fullmatch(rf"error: {re.escape(str(ckpt))}: forward pass failed: "
                            r"overflow encountered in \w+\n", err), err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_overflowing_data_exit_2_one_line_naming_it(tmp_path, tiny_dataset, capsys, command):
    # a finite series.csv cell of 1e300 passes read_dataset and overflows
    # the first attention scores; training raises on it at once, with no
    # RuntimeWarning first, and the one line names the data directory
    data_dir = tmp_path / "data"
    shutil.copytree(tiny_dataset, data_dir)
    series = data_dir / "series.csv"
    lines = series.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    cells[2] = "1e300"
    lines[2] = ",".join(cells)
    series.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = {"train": ["--prefix-packets", 4, "--out", tmp_path / "model.ckpt"],
            "sweep": ["--mode", "packets", "--grid", "2,4"]}[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(command, "--data", data_dir, "--config", sweep_config(tmp_path),
                       *args) == 2
    err = capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    assert re.fullmatch(rf"error: {re.escape(str(data_dir))}: training failed: "
                        r"overflow encountered in \w+\n", err), err
    assert not (tmp_path / "model.ckpt").exists()


@settings(max_examples=60)
@given(st.data())
def test_eval_and_latents_any_manifest_exit_cleanly(tiny_dataset, tiny_checkpoint, data):
    manifest = edited(data, json.loads(tiny_checkpoint.read_text(encoding="utf-8")))
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = f"{tmp}/model.ckpt"
        with open(ckpt, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        shutil.copyfile(f"{tiny_checkpoint}.bin", f"{ckpt}.bin")
        for command in (["eval", "--seed", "1"], ["latents"]):
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(command + ["--data", str(tiny_dataset), "--ckpt", ckpt,
                                       "--prefix-packets", "4", "--out", f"{tmp}/out.csv"])
            lines = stderr.getvalue().splitlines()
            assert code in (0, 2) and not caught, (code, lines, [str(w.message) for w in caught])
            assert len(lines) == (code == 2) and all(line.startswith("error: ") for line in lines)
