"""Lines of earlyflow that none of its production paths runs.

    python3 tools/trace_paths.py

Run from anywhere; the script imports earlyflow from src/ and the input
generators from tests/ of the checkout it sits in. Under the standard
library's line tracer (trace) it runs, on small inputs it generates in a
temporary directory (tests/gen_pcap.py, tests/gen_mts.py):

- through earlyflow.cli.main: extract on two captures (little-endian
  microsecond and big-endian nanosecond, with IPv6, 802.1Q and skipped
  frames, and a flow longer than --window-secs) with label rules; train by
  packet count (multi-domain) and by duration (the plain ablation), with
  --verbose; a train at learning rate 0 and patience 1, which stops
  early; eval (of the test split, and of all samples under --expect) and
  latents of each checkpoint; sweep --jobs 1 and --jobs 2 (a process
  pool where the machine has 2 CPUs); and an eval of an empty test split,
  which exits 2;
- as the benchmark calls them: model.predict and model.forward on one
  prefix.

It then prints, per module of src/earlyflow, the executable lines that no
path ran, grouped by the function or class that holds them; a function none
of whose body ran is marked "never called". Lines of raise statements, and
except clauses whose handler only raises, are left out: they are the error
paths that only malformed input reaches, which the tests cover. What is
listed is code that only tests, or no caller at all, need.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import io
import json
import os
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "earlyflow"


def _write_inputs(work: Path):
    """Two captures with a label-rules file, and a long-format dataset that
    fits the ecg profile, with three model configs."""
    from gen_mts import separable_suite
    from gen_pcap import (arp_frame, icmp_frame, ipv6_tcp_frame, ipv6_udp_frame, tcp_frame,
                          udp_frame, vlan_wrap, write_pcap)

    from earlyflow.features import write_dataset

    frames = []
    for i in range(6):
        t = 100.0 + i
        frames += [(t, tcp_frame("10.0.0.1", 5000 + i, "10.0.0.2", 80, flags=("syn",))),
                   (t + 0.01, tcp_frame("10.0.0.2", 80, "10.0.0.1", 5000 + i,
                                        flags=("syn", "ack"))),
                   (t + 0.02, vlan_wrap(udp_frame("10.0.0.3", 53, "10.0.0.4", 6000 + i))),
                   (t + 0.03, ipv6_udp_frame("2001:db8::1", 7000 + i, "2001:db8::2", 53)),
                   (t + 0.04, arp_frame()),
                   (t + 0.05, icmp_frame("10.0.0.1", "10.0.0.2"))]
    write_pcap(work / "a.pcap", frames)
    write_pcap(work / "b.pcap", [(200.0 + i, ipv6_tcp_frame(
        "2001:db8::3", 9000, "2001:db8::4", 443, flags=("ack",))) for i in range(5)],
        endian=">", nanos=True)
    (work / "rules.csv").write_text(
        "src_ip,src_port,dst_ip,dst_port,start_ts,end_ts,label\n"
        "10.0.0.1,*,10.0.0.2,80,0,1000,Probe\n", encoding="utf-8")
    write_dataset(separable_suite(0, n=24, length=8, d=2), work / "data")
    # 4 samples a class put 3 in train, 1 in validation and none in test
    write_dataset(separable_suite(0, n=8, length=8, d=2), work / "small")
    # at learning rate 0 the validation F1 stays flat, so patience 1 stops
    # training after its second epoch
    for name, model, training in (
            ("freq", {}, {}), ("plain", {"use_frequency_heads": False}, {}),
            ("stop", {}, {"learning_rate": 0.0, "patience": 1, "max_epochs": 3})):
        (work / f"{name}.json").write_text(json.dumps({
            "model": {"d_model": 8, "n_heads": 2, "n_blocks": 2, "d_ff": 16, **model},
            "training": {"max_epochs": 2, "patience": 2, **training},
        }), encoding="utf-8")


def run_paths(work: Path):
    """Every traced path, on inputs written to work; earlyflow is imported
    here, so its module-level lines count as run."""
    import numpy as np

    from earlyflow import cli, earliness, model, training

    _write_inputs(work)
    data = str(work / "data")
    commands = [
        ["extract", "--pcap", str(work / "a.pcap"), "--pcap", str(work / "b.pcap"),
         "--labels", str(work / "rules.csv"), "--window-secs", "2",
         "--out", str(work / "extracted")],
    ]
    for name, prefix in (("freq", ["--prefix-packets", "4"]),
                         ("plain", ["--prefix-duration", "3.5"])):
        ckpt = str(work / f"{name}.ckpt")
        commands += [
            ["train", "--data", data, *prefix, "--config", str(work / f"{name}.json"),
             "--out", ckpt, "--history", str(work / f"{name}.csv"), "--verbose"],
            ["eval", "--data", data, "--ckpt", ckpt, *prefix, "--out", str(work / "eval.csv")],
            ["eval", "--data", data, "--ckpt", ckpt, *prefix, "--split", "all",
             "--expect", "ecg"],
            ["latents", "--data", data, "--ckpt", ckpt, *prefix,
             "--out", str(work / "latents.csv")],
        ]
    commands.append(["train", "--data", data, "--prefix-packets", "4",
                     "--config", str(work / "stop.json"), "--out", str(work / "stop.ckpt")])
    commands += [["sweep", "--data", data, "--mode", "packets", "--grid", "2,4",
                  "--config", str(work / "freq.json"), "--jobs", jobs] for jobs in ("1", "2")]
    runs = [(argv, 0) for argv in commands]
    runs.append((["eval", "--data", str(work / "small"), "--ckpt", str(work / "freq.ckpt"),
                  "--prefix-packets", "4", "--split", "test"], 2))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv, expected in runs:
            if cli.main(argv) != expected:
                raise RuntimeError(f"earlyflow {' '.join(argv)} did not exit {expected}")
    trained = model.load_checkpoint(work / "freq.ckpt")
    sample = training.load_external_mts(data)[0]
    prefix, _ = earliness.take_prefix(sample, earliness.PrefixSpec.by_count(4))
    model.predict(trained, prefix.values)
    _, latent = model.forward(trained, prefix.values)
    assert np.isfinite(latent.data).all()


def executable_lines(code) -> set:
    """Line numbers of the instructions of code and of every code object
    nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def report_module(path: Path, ran: set) -> list:
    """Report lines for the module at path, given the line numbers that ran:
    a header and one line per function, class or module body with unrun
    lines. Empty when every line counted ran."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    skipped, owners, functions = set(), {}, set()

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            name = qualname
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qualname}.{child.name}" if qualname != "<module>" else child.name
                # the body, from its first statement; the def line runs on import
                first = child.body[0].lineno
                for line in range(first, child.end_lineno + 1):
                    owners[line] = name
                if not isinstance(child, ast.ClassDef):
                    functions.add(name)
            elif isinstance(child, ast.Raise):
                skipped.update(range(child.lineno, child.end_lineno + 1))
            elif isinstance(child, ast.ExceptHandler) and all(
                    isinstance(node, ast.Raise) for node in child.body):
                skipped.update(range(child.lineno, child.body[0].lineno))
            visit(child, name)

    visit(tree, "<module>")
    counted = sorted(executable_lines(compile(source, str(path), "exec")) - skipped)
    missed = [line for line in counted if line not in ran]
    if not missed:
        return []
    groups = {}   # owner -> list of [first, last] ranges of consecutive counted lines
    previous = None
    for line in counted:
        if line in ran:
            previous = None
            continue
        owner = owners.get(line, "<module>")
        ranges = groups.setdefault(owner, [])
        if previous == owner:
            ranges[-1][1] = line
        else:
            ranges.append([line, line])
        previous = owner
    out = [f"{path.relative_to(ROOT)}: {len(missed)} of {len(counted)} lines not run"]
    for owner, ranges in sorted(groups.items(), key=lambda item: item[1][0][0]):
        spans = ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in ranges)
        never = owner in functions and not any(
            line in ran for line in counted if owners.get(line) == owner)
        out.append(f"  {owner}: {spans}{' (never called)' if never else ''}")
    return out


class _OutsidePackage:
    """trace's ignore test, by file: every file outside src/earlyflow is
    ignored. trace's own test caches its answer by the file's base name, so
    with numpy's or the standard library's directories ignored it would
    also skip earlyflow's __init__.py, and any module sharing a name with
    an ignored one."""

    @functools.cache
    def names(self, filename, modulename):
        return Path(filename).resolve().parent != PACKAGE


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _OutsidePackage()
    with tempfile.TemporaryDirectory() as work:
        tracer.runfunc(run_paths, Path(work))
    ran = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(os.path.realpath(filename), set()).add(line)
    for path in sorted(PACKAGE.glob("*.py")):
        lines = report_module(path, ran.get(os.path.realpath(path), set()))
        if lines:
            print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
