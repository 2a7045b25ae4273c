"""Command-line entry point.

Subcommands: extract (pcap -> dataset), train, eval, sweep, latents. Every
random choice descends from --seed, so identical invocations produce
byte-identical output files. Exit codes: 0 success, 1 I/O failure, 2 invalid
input or configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
from dataclasses import fields

from .earliness import BY_COUNT, BY_DURATION, PrefixSpec, longest_prefix
from .features import DatasetFormatError, extract_mts, write_dataset
from .flows import (
    FlowTable, LabelRuleError, OrderingError, flow_order, join_labels, load_label_rules,
)
from .model import (
    MdtConfig, MdtModel, PrefixFault, export_latents, load_checkpoint, save_checkpoint,
)
from .pcap import SKIP_REASONS, CaptureError, open_capture
from .training import (
    EXPECT_PROFILES, Hyperparams, SweepPoint, class_sizes, dataset_classes, evaluate,
    load_external_mts, stratified_split, sweep, sweep_rows, train,
    write_history_csv,
)

# d_in and n_classes come from the dataset, not from a config file
MODEL_KEYS = {f.name for f in fields(MdtConfig)} - {"d_in", "n_classes"}
TRAINING_KEYS = {f.name for f in fields(Hyperparams)}


class CliError(Exception):
    """Invalid input or configuration (exit code 2)."""


def _load_config_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise CliError(f"{path}: config must be a JSON object")
    model_kwargs = raw.get("model", {})
    train_kwargs = raw.get("training", {})
    if not isinstance(model_kwargs, dict) or not isinstance(train_kwargs, dict):
        raise CliError(f'{path}: "model" and "training" must be JSON objects')
    unknown = (set(raw) - {"model", "training"}) | \
        (set(model_kwargs) - MODEL_KEYS) | (set(train_kwargs) - TRAINING_KEYS)
    if unknown:
        raise CliError(f"{path}: unknown config keys {sorted(unknown)}")
    return model_kwargs, train_kwargs


def _prefix_spec(args) -> PrefixSpec:
    # the required mutually exclusive group sets exactly one of the two
    if args.prefix_packets is not None:
        return PrefixSpec.by_count(args.prefix_packets)
    return PrefixSpec.by_duration(args.prefix_duration)


def _write_rows(rows, path):
    """CSV rows to stdout, and to path when one is given."""
    out = "\n".join(",".join(r) for r in rows) + "\n"
    sys.stdout.write(out)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(out)


@contextlib.contextmanager
def _naming(stage, data, samples, blamed=None):
    """Name the input to blame in a numeric fault of the forwards and
    backwards run inside (they raise FloatingPointError on overflow): the
    flow of samples, read from data, that a PrefixFault points to, and
    otherwise blamed (default data)."""
    try:
        yield
    except PrefixFault as exc:
        flow_id = samples[exc.index].flow_id
        raise CliError(f"{data}: flow {flow_id!r}: {stage} failed: {exc}") from None
    except FloatingPointError as exc:
        raise CliError(f"{blamed or data}: {stage} failed: {exc}") from None


def cmd_extract(args) -> int:
    rules = load_label_rules(args.labels) if args.labels else []
    all_flows = []
    packets = 0
    skipped = dict.fromkeys(SKIP_REASONS, 0)
    for path in args.pcap:
        table = FlowTable(window_secs=args.window_secs)
        with open_capture(path) as reader:
            for block in reader.blocks():
                table.assign_block(block)
            packets += reader.records_emitted
            for reason, n in reader.skipped_by.items():
                skipped[reason] += n
        all_flows.extend(table.flush())
    all_flows.sort(key=flow_order)
    join_labels(all_flows, rules)
    samples = extract_mts(all_flows)
    del all_flows   # the samples keep only the flushed blocks' timestamp columns
    write_dataset(samples, args.out)
    print(f"flows={len(samples)} packets={packets} skipped={sum(skipped.values())}")
    print("skipped by reason: " + " ".join(f"{k}={n}" for k, n in skipped.items()),
          file=sys.stderr)
    return 0


def _build_model_and_hp(args, samples, spec):
    model_kwargs, train_kwargs = _load_config_file(args.config) if args.config else ({}, {})
    if "max_len" not in model_kwargs:
        model_kwargs["max_len"] = longest_prefix(samples, spec)
    # one dataset has one width: the loader reads it from the series header
    config = MdtConfig(d_in=samples[0].width, n_classes=len(dataset_classes(samples)),
                       **model_kwargs)
    return config, Hyperparams(**train_kwargs)


def cmd_train(args) -> int:
    samples = load_external_mts(args.data, expect=args.expect)
    if not samples:
        raise CliError("dataset is empty")
    spec = _prefix_spec(args)
    config, hp = _build_model_and_hp(args, samples, spec)
    model = MdtModel(config, seed=args.seed)
    with _naming("training", args.data, samples):
        result = train(model, samples, spec, hp, seed=args.seed, verbose=args.verbose)
    save_checkpoint(model, args.out)
    if args.history:
        write_history_csv(result.history, args.history)
    best = max((h.val_macro_f1 for h in result.history), default=0.0)
    print(f"epochs={len(result.history)} best_val_macro_f1={best:.4f} ckpt={args.out}")
    return 0


def _load_fitting_checkpoint(args, samples, spec):
    """The checkpoint at args.ckpt, once it is known to take the samples'
    width and their longest prefix under spec, so a mismatch fails before
    any forward pass."""
    model = load_checkpoint(args.ckpt)
    if samples[0].width != model.config.d_in:
        raise CliError(f"{args.ckpt}: takes {model.config.d_in} features per packet, "
                       f"{args.data} has {samples[0].width}")
    longest = longest_prefix(samples, spec)
    if longest > model.config.max_len:
        raise CliError(f"{args.ckpt}: takes prefixes of at most {model.config.max_len} packets, "
                       f"{args.data} has one of {longest}")
    return model


def _select_split(samples, which, seed):
    if which == "all":
        return samples
    train_ids, val_ids, test_ids = stratified_split(samples, seed)
    chosen = {"train": train_ids, "val": val_ids, "test": test_ids}[which]
    return [samples[i] for i in chosen]


def cmd_eval(args) -> int:
    samples = load_external_mts(args.data, expect=args.expect)
    if not samples:
        raise CliError("dataset is empty")
    spec = _prefix_spec(args)
    subset = _select_split(samples, args.split, args.seed)
    if not subset:
        raise CliError(f"the {args.split} split is empty (class sizes {class_sizes(samples)})")
    model = _load_fitting_checkpoint(args, subset, spec)
    classes = model.classes or dataset_classes(samples)
    if len(classes) != model.config.n_classes:
        raise CliError(f"{args.ckpt}: has {model.config.n_classes} classes, "
                       f"{args.data} has {len(classes)}")
    unknown = sorted({s.label for s in subset} - set(classes))
    if unknown:
        raise CliError(f"{args.ckpt}: {args.data} has labels {unknown} outside the "
                       f"checkpoint's classes {list(classes)}")
    with _naming("forward pass", args.data, subset, blamed=args.ckpt):
        metrics, mean_e, mean_de = evaluate(model, subset, spec, classes)
    point = SweepPoint(spec=spec, mean_earliness=mean_e,
                       mean_duration_earliness=mean_de, metrics=metrics)
    _write_rows(sweep_rows([point]), args.out)
    return 0


def cmd_sweep(args) -> int:
    samples = load_external_mts(args.data, expect=args.expect)
    if not samples:
        raise CliError("dataset is empty")
    by_count = args.mode == BY_COUNT
    try:
        values = [int(v) if by_count else float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError as exc:
        raise CliError(f"bad grid: {exc}") from exc
    if not values:
        raise CliError("empty sweep grid")
    make_spec = PrefixSpec.by_count if by_count else PrefixSpec.by_duration
    specs = [make_spec(v) for v in values]  # every bad grid point fails before any training
    config, hp = _build_model_and_hp(args, samples, make_spec(max(values)))
    with _naming("training", args.data, samples):
        points = sweep(config, samples, specs, hp, seed=args.seed, jobs=args.jobs)
    _write_rows(sweep_rows(points), args.out)
    return 0


def cmd_latents(args) -> int:
    samples = load_external_mts(args.data, expect=args.expect)
    if not samples:
        raise CliError("dataset is empty")
    spec = _prefix_spec(args)
    model = _load_fitting_checkpoint(args, samples, spec)
    with _naming("forward pass", args.data, samples, blamed=args.ckpt):
        export_latents(model, samples, spec, args.out)
    print(f"wrote {args.out} rows={len(samples)} width={model.config.d_model}")
    return 0


def _add_prefix_options(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--prefix-packets", type=int, metavar="L",
                       help="classify on the first L packets")
    group.add_argument("--prefix-duration", type=float, metavar="T",
                       help="classify on packets within the first T seconds")


_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose rejections raise CliError (one `error:` line,
    exit 2) and that reads any negative decimal, such as -1e-05 or -inf,
    as an option's value rather than as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes only -N and -N.N for numbers
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="earlyflow",
        description="Flow time-series extraction and early classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="parse pcap files into a flow dataset")
    p.add_argument("--pcap", action="append", required=True, metavar="PATH",
                   help="capture file (repeatable); each file gets its own flow table, "
                        "so a flow never spans two files")
    p.add_argument("--labels", metavar="PATH",
                   help="label rules CSV; omitted = everything BENIGN")
    p.add_argument("--window-secs", type=float, default=120.0,
                   help="flow window in seconds (default 120)")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a model on flow prefixes")
    p.add_argument("--data", required=True, metavar="DIR")
    _add_prefix_options(p)
    p.add_argument("--config", metavar="JSON", help="model/training overrides")
    p.add_argument("--out", required=True, metavar="CKPT")
    p.add_argument("--history", metavar="CSV", help="write per-epoch history")
    p.add_argument("--expect", choices=EXPECT_PROFILES,
                   help="validate external dataset shape")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--ckpt", required=True, metavar="PATH")
    _add_prefix_options(p)
    p.add_argument("--split", choices=["train", "val", "test", "all"], default="test")
    p.add_argument("--expect", choices=EXPECT_PROFILES)
    p.add_argument("--out", metavar="CSV")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train/evaluate across a prefix grid")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--mode", choices=[BY_COUNT, BY_DURATION], required=True)
    p.add_argument("--grid", required=True, metavar="CSVLIST",
                   help="comma-separated prefix sizes, e.g. 2,4,8,16")
    p.add_argument("--config", metavar="JSON")
    p.add_argument("--expect", choices=EXPECT_PROFILES)
    p.add_argument("--out", metavar="CSV")
    p.add_argument("--jobs", type=int, default=1,
                   help="grid points trained side by side (>= 1, default 1); the pool holds "
                        "at most min(jobs, grid points, CPUs) processes")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("latents", help="export per-sample latent vectors")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--ckpt", required=True, metavar="PATH")
    _add_prefix_options(p)
    p.add_argument("--expect", choices=EXPECT_PROFILES)
    p.add_argument("--out", required=True, metavar="CSV")
    p.set_defaults(func=cmd_latents)

    return parser


INVALID_INPUT_ERRORS = (
    CliError, CaptureError, LabelRuleError, OrderingError, DatasetFormatError, ValueError,
    FloatingPointError,
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except INVALID_INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
