"""Measuring process for one perfbench run.

    python3 perfbench/measure.py --workload W --inputs DIR --work DIR \
        --seconds S --trace 0|1 --result PATH

run.py starts it with BLAS threads pinned to 1 and PYTHONPATH set to the
checkout's src/ and tests/. It imports the program, sets up, and then either
measures for S seconds (--trace 0) or, after a warm-up round, runs one fixed
round untraced and the same round under the span recorder (--trace 1). It checks the outputs and
writes a result JSON. It never generates inputs, so its peak RSS is the
program's own.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from types import SimpleNamespace

import numpy as np

import checks
from spans import SpanRecorder, totals_by_name

TRAIN_EPOCHS = 8
TRAIN_PREFIX_PACKETS = 16
TRAIN_MODEL = {"d_model": 32, "n_heads": 4, "n_blocks": 2, "d_ff": 64, "dropout": 0.1}
INFER_CHUNK = 100               # prefixes per evaluate / export_latents call
INFER_MIN_PREDICTS = 1000       # enough for a p99 with ten samples beyond it
INFER_PHASE_SHARES = (0.25, 0.5, 0.25)   # evaluate, predict, latents
LATENT_ROWS_CHECKED = 20        # per chunk, recomputed with forward()
DIRECT_DFT_MAX = 64             # bucket edge of fourier.fft_along_s.*; fourier.DIRECT_LEN today

# (span name, time metric, calls metric, "total" or "self")
SPAN_METRICS = [
    ("pcap.parse", "pcap.parse_s", "pcap.parse_calls", "total"),
    ("flows.assign", "flows.assign_s", "flows.assign_calls", "total"),
    ("flows.flush", "flows.flush_s", "flows.flush_calls", "total"),
    ("flows.join_labels", "flows.join_labels_s", "flows.join_labels_calls", "total"),
    ("features.extract_mts", "features.extract_mts_s", "features.extract_mts_calls", "total"),
    ("features.write_dataset", "features.write_dataset_s", "features.write_dataset_calls", "total"),
    ("cli.extract", "cli.extract_self_s", "cli.extract_calls", "self"),
    ("features.read_dataset", "features.read_dataset_s", "features.read_dataset_calls", "total"),
    ("model.forward_train", "model.forward_train_s", "model.forward_train_calls", "total"),
    ("autodiff.backward", "autodiff.backward_s", "autodiff.backward_calls", "total"),
    ("training.adam_step", "training.adam_step_s", "training.adam_step_calls", "total"),
    ("autodiff.cross_entropy", "autodiff.cross_entropy_s", "autodiff.cross_entropy_calls", "total"),
    ("training.train", "training.train_self_s", "training.train_calls", "self"),
    ("model.forward_eval", "model.forward_eval_s", "model.forward_eval_calls", "total"),
    ("model.md_mha", "model.md_mha_s", "model.md_mha_calls", "total"),
    ("model.encoder_block", "model.encoder_block_self_s", "model.encoder_block_calls", "self"),
    ("model.ifft_augment", "model.ifft_augment_s", "model.ifft_augment_calls", "total"),
    ("autodiff.matmul", "autodiff.matmul_s", "autodiff.matmul_calls", "total"),
    ("autodiff.softmax", "autodiff.softmax_s", "autodiff.softmax_calls", "total"),
    ("autodiff.layer_norm", "autodiff.layer_norm_s", "autodiff.layer_norm_calls", "total"),
    ("autodiff.fft_pair", "autodiff.fft_pair_s", "autodiff.fft_pair_calls", "total"),
    ("fourier.fft_along.n_le64", "fourier.fft_along_s.n_le64", "fourier.fft_along_calls.n_le64", "total"),
    ("fourier.fft_along.n_gt64", "fourier.fft_along_s.n_gt64", "fourier.fft_along_calls.n_gt64", "total"),
    ("earliness.take_prefix", "earliness.take_prefix_s", "earliness.take_prefix_calls", "total"),
    ("model.export_latents", "model.export_latents_self_s", "model.export_latents_calls", "self"),
    ("model.load_checkpoint", "model.load_checkpoint_s", "model.load_checkpoint_calls", "total"),
    ("metrics.compute_metrics", "metrics.compute_metrics_s", "metrics.compute_metrics_calls", "total"),
]
# (name, unit, better) of the per-layer metrics that are not span totals
COUNTER_METRICS = [
    ("pcap.frames", "count", "higher"),
    ("pcap.records_per_frame", "ratio", "higher"),
    ("flows.count", "count", "lower"),
    ("features.bytes_written", "bytes", "lower"),
    ("earliness.prefix_len_p50", "packets", "lower"),
    ("earliness.prefix_len_max", "packets", "lower"),
    ("earliness.prefix_len_gt64_frac", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for _, time_metric, calls_metric, _ in SPAN_METRICS:
        spec += [(time_metric, "s", "lower"), (calls_metric, "count", "lower")]
    return spec + COUNTER_METRICS


def import_program():
    """The program's modules, imported here rather than at the top so that
    importing this file does not import the program."""
    from earlyflow import autodiff, cli, earliness, features, flows, fourier, model, pcap, training
    return SimpleNamespace(autodiff=autodiff, cli=cli, earliness=earliness, features=features,
                           flows=flows, fourier=fourier, model=model, pcap=pcap, training=training)


class Ops:
    """Counts attempted and failed calls into the program."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, label, fn, *args, ok=None, **kwargs):
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted and reported, the run goes on
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        if ok is not None and not ok(result):
            self.failed += 1
            self.errors.append(f"{label}: returned {result!r}")
            return None
        return result


def run_units(unit, seconds, min_units):
    """Call unit(k) for k = 0, 1, ... until the next call would likely end
    past `seconds`, but at least min_units times."""
    start = time.perf_counter()
    k = 0
    last = 0.0
    while k < min_units or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        unit(k)
        last = time.perf_counter() - t
        k += 1
    return k


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads

class Ingest:
    """earlyflow extract in-process, then read_dataset on its output."""

    def __init__(self, ef, inputs, work, truth, ops):
        self.ef, self.work, self.truth, self.ops = ef, work, truth, ops
        self.argv = ["extract", "--pcap", os.path.join(inputs, "capture.pcap"),
                     "--labels", os.path.join(inputs, "rules.csv"),
                     "--window-secs", str(truth["window_secs"])]
        self.extract_rates, self.load_rates, self.ingest_rates = [], [], []
        self.lines, self.digests, self.summaries = [], [], []

    def setup(self):
        pass   # extract needs nothing beyond the import

    def unit(self, k):
        out = os.path.join(self.work, f"extract-{k % 2}")
        buf = io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = self.ops.call("extract", self.ef.cli.main, self.argv + ["--out", out],
                               ok=lambda code: code == 0)
        elapsed = time.perf_counter() - t
        if rc is None:
            return
        extract_s = elapsed
        self.extract_rates.append(self.truth["frames"] / extract_s)
        self.lines.append(buf.getvalue().strip())
        self.digests.append((_digest(os.path.join(out, "flows.csv")),
                             _digest(os.path.join(out, "series.csv"))))
        t = time.perf_counter()
        samples = self.ops.call("read_dataset", self.ef.features.read_dataset, out)
        elapsed = time.perf_counter() - t
        if samples is None:
            return
        summary = checks.dataset_summary(samples)
        self.load_rates.append(summary["packets"] / elapsed)
        self.ingest_rates.append(self.truth["frames"] / (extract_s + elapsed))
        self.summaries.append(summary)

    def measure(self, seconds):
        run_units(self.unit, seconds, min_units=2)

    def trace_round(self, k):
        self.unit(k)

    def metrics(self):
        return {"work_per_s": _median(self.ingest_rates)}

    def readout(self):
        return [("extract_pkts_per_s", _median(self.extract_rates), "packets/s"),
                ("load_rows_per_s", _median(self.load_rates), "rows/s"),
                ("extract_runs", len(self.extract_rates), "count")]

    def unit_samples(self):
        return {"extract_pkts_per_s": self.extract_rates, "load_rows_per_s": self.load_rates,
                "ingest_pkts_per_s": self.ingest_rates}

    def check(self):
        return checks.check_ingest(self.truth, self.lines, self.digests, self.summaries)


class _LineClock(io.TextIOBase):
    """A stdout stand-in that notes the time each line ends."""

    def __init__(self):
        super().__init__()
        self.stamps = [time.perf_counter()]

    def write(self, text):
        if "\n" in text:
            self.stamps.append(time.perf_counter())
        return len(text)


class TrainPackets:
    """training.train for a fixed epoch count on equal-length prefixes."""

    def __init__(self, ef, inputs, work, truth, ops):
        self.ef, self.inputs, self.truth, self.ops = ef, inputs, truth, ops
        self.seed = truth["seed"]
        self.spec = ef.earliness.PrefixSpec.by_count(TRAIN_PREFIX_PACKETS)
        self.hp = ef.training.Hyperparams(max_epochs=TRAIN_EPOCHS, patience=TRAIN_EPOCHS + 1)
        self.rates, self.histories, self.read_times = [], [], []
        self.test_f1 = None
        self.last = None

    def setup(self):
        samples = _timed_read(self.ef, self.inputs, self.read_times)
        config = self.ef.model.MdtConfig(d_in=samples[0].width, n_classes=len(self.truth["classes"]),
                                         max_len=TRAIN_PREFIX_PACKETS, **TRAIN_MODEL)
        self.samples = samples
        self.config = config
        self.model = self.ef.model.MdtModel(config, seed=self.seed)

    def unit(self, k):
        model = self.model
        clock = _LineClock()
        with contextlib.redirect_stdout(clock):
            result = self.ops.call("train", self.ef.training.train, model, self.samples, self.spec,
                                   self.hp, seed=self.seed, verbose=True)
        self.model = self.ef.model.MdtModel(self.config, seed=self.seed)   # fresh for the next run
        if result is None:
            return
        # verbose train() prints one line per epoch, after validation
        for start, end in zip(clock.stamps, clock.stamps[1:]):
            self.rates.append(len(result.train_ids) / (end - start))
        self.histories.append([(h.loss, h.val_macro_f1) for h in result.history])
        self.last = (model, result)

    def measure(self, seconds):
        run_units(self.unit, seconds, min_units=2)

    def trace_round(self, k):
        self.unit(k)

    def metrics(self):
        return {"work_per_s": _median(self.rates)}

    def readout(self):
        return [("train_samples_per_s", _median(self.rates), "sample-steps/s"),
                ("train_runs", len(self.histories), "count"),
                ("epochs_timed", len(self.rates), "count"),
                ("test_macro_f1", self.test_f1, "ratio")]

    def unit_samples(self):
        return {"train_samples_per_s": self.rates}

    def check(self):
        if self.last is not None:
            model, result = self.last
            test = [self.samples[i] for i in result.test_ids]
            metrics, _, _ = self.ef.training.evaluate(model, test, self.spec, result.classes)
            self.test_f1 = metrics.macro_f1
        return checks.check_train(self.histories, TRAIN_EPOCHS, self.test_f1)


class InferDuration:
    """evaluate, per-prefix take_prefix + predict, and export_latents on
    ragged duration prefixes from a loaded checkpoint."""

    def __init__(self, ef, inputs, work, truth, ops):
        self.ef, self.inputs, self.work, self.truth, self.ops = ef, inputs, work, truth, ops
        self.spec = ef.earliness.PrefixSpec.by_duration(truth["prefix_secs"])
        # chunks with the same prefix-length mix: sort by length, deal round robin
        by_length = sorted(range(truth["flows"]), key=lambda i: (truth["prefix_len"][i], i))
        n_chunks = max(1, truth["flows"] // INFER_CHUNK)
        self.chunks = [by_length[c::n_chunks] for c in range(n_chunks)]
        self.eval_rates, self.predict_rates, self.latent_rates = [], [], []
        self.latencies_ms, self.read_times = [], []
        self.evaluations, self.predictions, self.latents = {}, {}, {}

    def setup(self):
        self.samples = _timed_read(self.ef, self.inputs, self.read_times)
        self.model = self.ef.model.load_checkpoint(os.path.join(self.inputs, "model.ckpt"))

    def _chunk(self, c):
        return [self.samples[i] for i in self.chunks[c % len(self.chunks)]]

    def evaluate_chunk(self, c):
        c %= len(self.chunks)
        chunk = self._chunk(c)
        t = time.perf_counter()
        out = self.ops.call("evaluate", self.ef.training.evaluate, self.model, chunk, self.spec,
                            self.model.classes)
        elapsed = time.perf_counter() - t
        if out is not None:
            metrics, mean_e, mean_de = out
            self.eval_rates.append(len(chunk) / elapsed)
            self.evaluations[c] = (metrics.confusion.tolist(), mean_e, mean_de)

    def predict_chunk(self, c):
        c %= len(self.chunks)
        take_prefix, predict = self.ef.earliness.take_prefix, self.ef.model.predict
        labels, total = [], 0.0
        for sample in self._chunk(c):
            t = time.perf_counter()
            prefix = self.ops.call("take_prefix", take_prefix, sample, self.spec)
            index = None if prefix is None else \
                self.ops.call("predict", predict, self.model, prefix[0].values)
            elapsed = time.perf_counter() - t
            if index is None:
                labels.append(None)
                continue
            self.latencies_ms.append(elapsed * 1e3)
            total += elapsed
            labels.append(self.model.classes[index])
        self.predict_rates.append(len(labels) / total if total else 0.0)
        self.predictions[c] = labels

    def latents_chunk(self, c):
        c %= len(self.chunks)
        chunk = self._chunk(c)
        path = os.path.join(self.work, f"latents-{c}.csv")
        t = time.perf_counter()
        out = self.ops.call("export_latents", self.ef.model.export_latents, self.model, chunk,
                            self.spec, path)
        elapsed = time.perf_counter() - t
        if out is None:
            return
        self.latent_rates.append(len(chunk) / elapsed)
        self.latents[c] = self._compare_latents(chunk, path)

    def _compare_latents(self, chunk, path):
        with open(path, encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        step = max(1, len(rows) // LATENT_ROWS_CHECKED)
        max_diff = 0.0
        for i in range(0, len(rows), step):
            prefix, _ = self.ef.earliness.take_prefix(chunk[i], self.spec)
            _, latent = self.ef.model.forward(self.model, prefix.values)
            exported = np.array([float(v) for v in rows[i][2:]])
            max_diff = max(max_diff, float(np.max(np.abs(exported - latent.data))))
        return [r[0] for r in rows], [r[1] for r in rows], max_diff

    def measure(self, seconds):
        budgets = [seconds * share for share in INFER_PHASE_SHARES]
        evaluated = run_units(self.evaluate_chunk, budgets[0], min_units=1)
        min_predict = max(evaluated, -(-INFER_MIN_PREDICTS // INFER_CHUNK))
        run_units(self.predict_chunk, budgets[1], min_units=min_predict)
        run_units(self.latents_chunk, budgets[2], min_units=1)

    def trace_round(self, k):
        self.evaluate_chunk(0)
        self.predict_chunk(0)
        self.latents_chunk(0)

    def metrics(self):
        rates = [_median(self.eval_rates), _median(self.predict_rates), _median(self.latent_rates)]
        work = len(rates) / sum(1.0 / r for r in rates) if all(rates) else 0.0
        return {"work_per_s": work}

    def readout(self):
        lat = sorted(self.latencies_ms)
        return [("eval_prefixes_per_s", _median(self.eval_rates), "prefixes/s"),
                ("predict_ms_p50", _percentile(lat, 50), "ms"),
                ("predict_ms_p99", _percentile(lat, 99), "ms"),
                ("predict_samples", len(lat), "count"),
                ("latents_rows_per_s", _median(self.latent_rates), "rows/s")]

    def unit_samples(self):
        return {"eval_prefixes_per_s": self.eval_rates, "predict_prefixes_per_s": self.predict_rates,
                "latents_rows_per_s": self.latent_rates}

    def check(self):
        return checks.check_infer(self.truth, self.chunks, self.evaluations, self.predictions,
                                  self.latents)


WORKLOADS = {"ingest": Ingest, "train_packets": TrainPackets, "infer_duration": InferDuration}


def _timed_read(ef, directory, times):
    start = time.perf_counter()
    samples = ef.features.read_dataset(directory)
    times.append(time.perf_counter() - start)
    return samples


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(sorted_values, q):
    """Linear-interpolation percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# tracing

class LayerCounters:
    def __init__(self):
        self.readers = []
        self.flows = 0
        self.bytes_written = 0
        self.prefix_lengths = []


def install_tracing(rec: SpanRecorder, ef, counters: LayerCounters):
    """Wrap each layer's public functions at the names their callers use."""
    def fft_bucket(args, kwargs):
        axis = kwargs["axis"] if "axis" in kwargs else args[1]
        n = args[0].shape[axis]
        return "fourier.fft_along.n_le64" if n <= DIRECT_DFT_MAX else "fourier.fft_along.n_gt64"

    def forward_kind(args, kwargs):
        training = kwargs["training"] if "training" in kwargs else len(args) > 2 and args[2]
        return "model.forward_train" if training else "model.forward_eval"

    def keep_reader(reader, args, kwargs):
        counters.readers.append(reader)

    def count_flows(flows, args, kwargs):
        counters.flows += len(flows)

    def count_bytes(manifest, args, kwargs):
        counters.bytes_written += sum(os.path.getsize(manifest[k]) for k in ("flows_path", "series_path"))

    def prefix_length(result, args, kwargs):
        counters.prefix_lengths.append(result[1].packets_used)

    cli, model, training, autodiff = ef.cli, ef.model, ef.training, ef.autodiff
    rec.patch(ef.pcap.CaptureReader, "__next__", "pcap.parse")
    rec.patch(cli, "open_capture", "pcap.open_capture", keep_reader)
    rec.patch(ef.flows.FlowTable, "assign_packet", "flows.assign")
    rec.patch(ef.flows.FlowTable, "flush", "flows.flush", count_flows)
    rec.patch(cli, "join_labels", "flows.join_labels")
    rec.patch(cli, "extract_mts", "features.extract_mts")
    rec.patch(cli, "write_dataset", "features.write_dataset", count_bytes)
    rec.patch(cli, "cmd_extract", "cli.extract")
    rec.patch(ef.features, "read_dataset", "features.read_dataset")
    rec.patch(training, "forward", forward_kind)
    rec.patch(model, "forward", forward_kind)
    rec.patch(training, "backward", "autodiff.backward")
    rec.patch(training.Adam, "step", "training.adam_step")
    rec.patch(training, "cross_entropy", "autodiff.cross_entropy")
    rec.patch(training, "train", "training.train")
    rec.patch(training, "compute_metrics", "metrics.compute_metrics")
    rec.patch(model, "md_mha", "model.md_mha")
    rec.patch(model, "encoder_block", "model.encoder_block")
    rec.patch(model, "ifft_augment", "model.ifft_augment")
    rec.patch(model, "export_latents", "model.export_latents")
    rec.patch(model, "load_checkpoint", "model.load_checkpoint")
    for op in ("matmul", "softmax", "layer_norm", "fft_pair"):
        rec.patch(autodiff, op, f"autodiff.{op}")
    rec.patch(autodiff, "fft_along", fft_bucket)
    rec.patch(ef.fourier, "fft_along", fft_bucket)
    for owner in (training, model, ef.earliness):
        rec.patch(owner, "take_prefix", "earliness.take_prefix", prefix_length)


def per_layer_metrics(rec: SpanRecorder, counters: LayerCounters, traced_s, untraced_s):
    names, starts, ends, parents = rec.tree()
    totals = totals_by_name(names, starts, ends, parents)
    out = {}
    for span, time_metric, calls_metric, kind in SPAN_METRICS:
        entry = totals.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[time_metric] = entry["total_s" if kind == "total" else "self_s"]
        out[calls_metric] = entry["calls"]
    frames = sum(r.frames_total for r in counters.readers)
    emitted = sum(r.records_emitted for r in counters.readers)
    lengths = sorted(counters.prefix_lengths)
    out["pcap.frames"] = frames
    out["pcap.records_per_frame"] = emitted / frames if frames else 0.0
    out["flows.count"] = counters.flows
    out["features.bytes_written"] = counters.bytes_written
    out["earliness.prefix_len_p50"] = _percentile(lengths, 50)
    out["earliness.prefix_len_max"] = lengths[-1] if lengths else 0
    out["earliness.prefix_len_gt64_frac"] = (
        sum(1 for n in lengths if n > DIRECT_DFT_MAX) / len(lengths) if lengths else 0.0)
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    out["trace.spans"] = len(names)
    return out


# ---------------------------------------------------------------------------

def environment():
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "cpu": cpu,
            "nproc": os.cpu_count(),
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    ef = import_program()
    with open(os.path.join(args.inputs, "truth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)
    os.makedirs(args.work, exist_ok=True)
    ops = Ops()
    workload = WORKLOADS[args.workload](ef, args.inputs, args.work, truth, ops)

    result = {"environment": environment()}
    if args.trace:
        # a warm-up round fills memory, the file cache and the transform
        # tables, so the untraced and traced rounds start from the same state
        workload.setup()
        workload.trace_round(0)
        start = time.perf_counter()
        workload.setup()
        workload.trace_round(1)
        untraced = time.perf_counter() - start
        counters = LayerCounters()
        with SpanRecorder() as rec:
            install_tracing(rec, ef, counters)
            start = time.perf_counter()
            workload.setup()
            workload.trace_round(2)
            traced = time.perf_counter() - start
        values = per_layer_metrics(rec, counters, traced, untraced)
        result["per_layer"] = [(name, values[name], unit) for name, unit, _ in per_layer_spec()]
        rec.write_csv(os.path.join(args.work, "spans.csv"))
    else:
        workload.setup()
        workload.measure(args.seconds)
        result["metrics"] = dict(workload.metrics(),
                                 peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["failures"] = workload.check() + ops.errors
    result["readout"] = workload.readout()
    result["samples"] = workload.unit_samples()
    result["attempted"] = ops.attempted
    result["failed"] = ops.failed
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
