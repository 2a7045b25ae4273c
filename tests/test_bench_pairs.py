import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_iqr_is_numpy_linear_quartile_distance():
    # quartiles of 1..8 with linear interpolation: 2.75 and 6.25
    assert bench_pairs.iqr([8, 1, 7, 2, 6, 3, 5, 4]) == pytest.approx(3.5)
    assert bench_pairs.iqr([10, 20]) == pytest.approx(5.0)
    assert bench_pairs.iqr([3.0]) == 0.0


def test_wins_count_strictly_better_pairs_and_ties_for_neither():
    parent = [10, 10, 10, 10]
    change = [11, 10, 9, 12]
    assert bench_pairs.wins(parent, change, "higher") == 2
    assert bench_pairs.wins(parent, change, "lower") == 1


def test_worse_by_is_relative_and_signed_by_direction():
    assert bench_pairs.worse_by(100.0, 80.0, "higher") == pytest.approx(0.2)
    assert bench_pairs.worse_by(100.0, 80.0, "lower") == pytest.approx(-0.2)
    assert bench_pairs.worse_by(2.0, 2.5, "lower") == pytest.approx(0.25)
    assert bench_pairs.worse_by(0.0, 1.0, "lower") == 0.0


def test_sides_alternate_which_runs_first():
    assert [bench_pairs.side_order(i)[0] for i in range(4)] == \
        ["parent", "change", "parent", "change"]
    assert set(bench_pairs.side_order(1)) == {"parent", "change"}


def test_summarize_fixed_numbers():
    end_to_end = [{"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
                  {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    parent = [{"work_per_s": w, "setup_s": s} for w, s in [(100, 1.0), (110, 1.2), (90, 0.8),
                                                          (105, 1.1)]]
    change = [{"work_per_s": w, "setup_s": s} for w, s in [(120, 1.0), (100, 1.0), (95, 0.9),
                                                          (130, 1.3)]]
    rows = bench_pairs.summarize({"ingest": {"parent": parent, "change": change}}, end_to_end)
    assert [row[:2] for row in rows] == [("ingest", "work_per_s"), ("ingest", "setup_s")]
    _, _, unit, p_med, c_med, spread, won, pairs, worse, bound, word = rows[0]
    assert (unit, p_med, c_med, won, pairs, bound, word) == ("1/s", 102.5, 110.0, 3, 4, 0.25, "")
    assert spread == pytest.approx(106.25 - 97.5)
    assert worse == pytest.approx((102.5 - 110.0) / 102.5)
    _, _, _, p_med, c_med, spread, won, pairs, worse, _, word = rows[1]
    assert (c_med, won, pairs, word) == (1.0, 1, 4, "")   # the tie at 1.0 counts for neither
    assert p_med == pytest.approx(1.05)
    assert spread == pytest.approx(1.125 - 0.95)
    assert worse == pytest.approx((1.0 - 1.05) / 1.05)
    assert "3/4" in bench_pairs.format_rows(rows)
    assert bench_pairs.summarize({"ingest": {"parent": [], "change": []}}, end_to_end) == []


def test_verdict_fixed_numbers():
    parent = [66.0, 66.1, 66.0, 66.2, 66.1, 66.0, 66.3, 66.1, 66.0, 66.2]
    assert bench_pairs.iqr(parent) == pytest.approx(0.175)
    # 9 of 10 pairs won, the medians 7.05 apart: a resolved gain
    change = [59.0, 59.1, 58.9, 59.2, 59.0, 59.3, 58.9, 59.0, 59.1, 66.5]
    assert bench_pairs.verdict(parent, change, "lower", 0.1) == "resolved"
    # 8 of 10 won: not resolved, and the parent's spread is within the bound
    assert bench_pairs.verdict(parent, change[:8] + [66.5, 66.5], "lower", 0.1) == ""
    # 9 of 10 won, but the medians are 0.1 apart, within the parent's IQR
    assert bench_pairs.verdict(parent, [p - 0.1 for p in parent[:9]] + [67.0], "lower",
                               0.1) == ""
    # a parent IQR of 45% of its median exceeds a 0.25 bound
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 100.0]
    assert bench_pairs.iqr(wide) == pytest.approx(45.0)
    assert bench_pairs.verdict(wide, [w * 0.95 for w in wide], "higher", 0.25) == "unresolved"
    assert bench_pairs.verdict(wide, [w * 0.95 for w in wide], "higher", 0.5) == ""
    # unless every change run beats every parent run
    assert bench_pairs.verdict(wide, [141.0] * 8, "higher", 0.25) == ""
    assert bench_pairs.verdict(wide, [141.0] * 7 + [100.0], "higher", 0.25) == "unresolved"
    assert bench_pairs.verdict(wide, [150.0] * 8, "higher", 0.25) == "resolved"
    lines = bench_pairs.format_rows(bench_pairs.summarize(
        {"ingest": {"parent": [{"peak_rss_mb": p} for p in parent],
                    "change": [{"peak_rss_mb": c} for c in change]}},
        [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}])).splitlines()
    assert lines[0].split()[-1] == "verdict"
    assert lines[1].split()[-2:] == ["MB", "resolved"]


def test_operations_fixed_numbers_mark_a_larger_failed_share():
    ops = {"ingest": {"parent": (1000, 0), "change": (900, 0)},
           "train_packets": {"parent": (200, 1), "change": (100, 1)},
           "infer_duration": {"parent": (400, 4), "change": (500, 5)}}
    assert bench_pairs.failed_share(200, 1) == pytest.approx(0.005)
    assert bench_pairs.failed_share(0, 0) == 0.0
    lines = bench_pairs.format_operations(ops).splitlines()
    assert len(lines) == 4
    assert lines[1].split() == ["ingest", "0/1000", "(0.00%)", "0/900", "(0.00%)"]
    assert lines[2].split() == ["train_packets", "1/200", "(0.50%)", "1/100", "(1.00%)", "WORSE"]
    # an equal share is not worse
    assert lines[3].split() == ["infer_duration", "4/400", "(1.00%)", "5/500", "(1.00%)"]


WORKLOADS = ["ingest", "train_packets", "infer_duration"]


def test_args_default_to_every_workload_at_seed_0():
    args = bench_pairs.parse_args(["--parent", "HEAD~1"], WORKLOADS)
    assert (args.parent, args.pairs, args.workload, args.seed) == ("HEAD~1", 10, WORKLOADS, 0)


def test_args_pick_repeated_workloads_once_in_order_at_any_seed():
    args = bench_pairs.parse_args(["--parent", "abc", "--workload", "infer_duration",
                                   "--workload", "ingest", "--workload", "infer_duration",
                                   "--seed", "1", "--pairs", "12"], WORKLOADS)
    assert (args.workload, args.seed, args.pairs) == (["infer_duration", "ingest"], 1, 12)


@pytest.mark.parametrize("argv", [["--workload", "ingest"],
                                  ["--parent", "abc", "--workload", "nope"],
                                  ["--parent", "abc", "--seed", "x"]])
def test_args_rejected_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args(argv, WORKLOADS)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
