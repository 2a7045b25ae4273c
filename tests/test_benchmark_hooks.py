"""The benchmark's tracer (perfbench/measure.py, --trace 1) wraps program
functions by the names their callers use. Installing it here makes a removed
or renamed function fail this suite rather than the benchmark."""

import os
import sys

import numpy as np

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import measure  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def test_benchmark_tracing_installs_on_the_program_and_restores():
    ef = measure.import_program()
    with SpanRecorder() as rec:  # restores what was patched even if a patch fails
        measure.install_tracing(rec, ef, measure.LayerCounters())
        patched = list(rec._patches)
        assert patched
        assert all(vars(owner)[attr].__wrapped__ is original for owner, attr, original in patched)
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)


def test_tracer_tells_training_forwards_from_eval_forwards():
    # the tracer names a forward model.forward_train only when its third
    # positional argument is truthy, so training passes its rng positionally
    ef = measure.import_program()
    config = ef.model.MdtConfig(d_in=3, n_classes=2, d_model=8, n_heads=2, n_blocks=1, d_ff=8,
                                max_len=4)
    model = ef.model.MdtModel(config, seed=0)
    prefixes = [np.zeros((4, 3)), np.ones((4, 3))]

    def forward_spans():
        return [name for name in rec.names if name.startswith("model.forward")]

    with SpanRecorder() as rec:
        measure.install_tracing(rec, ef, measure.LayerCounters())
        ef.training.minibatch_gradients(model, prefixes, np.array([0, 1]), np.ones(2),
                                        np.random.default_rng(0))
        assert forward_spans() == ["model.forward_train"]
        ef.model.forward_prefixes(model, prefixes)
        assert forward_spans() == ["model.forward_train", "model.forward_eval"]


def test_tracer_records_the_extract_spans(tmp_path, capsys):
    from gen_pcap import tcp_frame, udp_frame, write_pcap

    ef = measure.import_program()
    capture = tmp_path / "small.pcap"
    write_pcap(capture, [(100.0, tcp_frame("10.0.0.1", 5000, "10.0.0.2", 80, flags=("syn",))),
                         (100.1, tcp_frame("10.0.0.2", 80, "10.0.0.1", 5000, flags=("ack",))),
                         (100.2, udp_frame("10.0.0.3", 5353, "10.0.0.4", 53))])
    counters = measure.LayerCounters()
    with SpanRecorder() as rec:
        measure.install_tracing(rec, ef, counters)
        assert ef.cli.main(["extract", "--pcap", str(capture), "--out", str(tmp_path / "ds")]) == 0
    assert capsys.readouterr().out == "flows=2 packets=3 skipped=0\n"
    assert {"cli.extract", "flows.flush", "features.extract_mts",
            "features.write_dataset"} <= set(rec.names)
    assert counters.flows == 2
    assert [reader.frames_total for reader in counters.readers] == [3]
