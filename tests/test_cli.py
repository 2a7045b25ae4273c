import json
import re

import numpy as np
import pytest

from earlyflow.cli import main
from earlyflow.features import write_dataset

from gen_mts import separable_suite
from gen_pcap import tcp_frame, udp_frame, arp_frame, write_pcap
from test_features import MALFORMED, break_dataset


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
    # one non-IP frame to exercise the skip counter
    frames.append((101.0, arp_frame()))
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
    assert "skipped=1" in printed
    flows_lines = (out_dir / "flows.csv").read_text(encoding="utf-8").strip().splitlines()
    assert len(flows_lines) == 3  # header + 2 flows
    assert flows_lines[1].endswith("BENIGN")


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
], ids=repr)
def test_bad_config_value_exit_2_one_line(tmp_path, toy_dataset, capsys, body):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body), encoding="utf-8")
    assert run_cli("train", "--data", toy_dataset, "--prefix-packets", 4,
                   "--config", config, "--out", tmp_path / "x.ckpt") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


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


def test_bad_grid_exit_2(tmp_path, toy_dataset):
    assert run_cli("sweep", "--data", toy_dataset, "--mode", "packets",
                   "--grid", "2,banana", "--out", tmp_path / "s.csv") == 2


def test_default_window_is_two_minutes():
    from earlyflow.cli import build_parser
    args = build_parser().parse_args(["extract", "--pcap", "x.pcap", "--out", "d"])
    assert args.window_secs == 120.0


def test_default_seed_is_42():
    from earlyflow.cli import build_parser
    args = build_parser().parse_args(
        ["train", "--data", "d", "--prefix-packets", "4", "--out", "c"])
    assert args.seed == 42
