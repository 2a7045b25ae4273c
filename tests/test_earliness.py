import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earlyflow.earliness import EarlinessReport, PrefixSpec, aggregate_earliness, take_prefix
from earlyflow.features import MtsSample


def series(timestamps, d=3, label="x"):
    ts = np.asarray(timestamps, dtype=float)
    values = np.zeros((len(ts), d))
    values[1:, 1] = np.diff(ts)
    return MtsSample(flow_id="f", values=values, timestamps=ts, label=label)


def burst_10_packets_100ms():
    # the shell/reverse_tcp payload shape: 10 packets spanning 0.10 s
    return series(np.linspace(0.0, 0.10, 10))


def test_count_prefix_arithmetic():
    sample = series(np.arange(500) * 0.01)
    _, report = take_prefix(sample, PrefixSpec.by_count(10))
    assert report.earliness == pytest.approx(0.02)
    assert report.packets_used == 10


def test_burst_fixture_full_duration():
    sample = burst_10_packets_100ms()
    prefix, report = take_prefix(sample, PrefixSpec.by_duration(0.10))
    assert prefix.length == 10
    assert report.earliness == pytest.approx(1.0)
    assert report.duration_earliness == pytest.approx(1.0)


def test_burst_fixture_half_count():
    sample = burst_10_packets_100ms()
    _, report = take_prefix(sample, PrefixSpec.by_count(5))
    assert report.earliness == pytest.approx(0.5)


def test_count_clamps_to_length():
    sample = series([0.0, 0.1, 0.2])
    prefix, report = take_prefix(sample, PrefixSpec.by_count(50))
    assert prefix.length == 3
    assert report.earliness == 1.0


def test_duration_zero_keeps_first_packet():
    sample = series([5.0, 5.5, 6.0])
    prefix, report = take_prefix(sample, PrefixSpec.by_duration(0.0))
    assert prefix.length == 1
    assert report.duration_used == 0.0
    assert report.duration_earliness == 0.0


def test_single_packet_flow_duration_earliness_zero():
    sample = series([7.0])
    _, report = take_prefix(sample, PrefixSpec.by_count(1))
    assert report.earliness == 1.0
    assert report.duration_earliness == 0.0


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        PrefixSpec.by_count(0)
    with pytest.raises(ValueError):
        PrefixSpec.by_duration(-1.0)
    with pytest.raises(ValueError):
        PrefixSpec(mode="bogus")


def test_aggregate_single_report():
    assert aggregate_earliness([EarlinessReport(0.5, 0.25, 1, 1.0)]) == (0.5, 0.25)


def test_aggregate_two_reports():
    reports = [EarlinessReport(0.0, 1.0, 1, 1.0), EarlinessReport(1.0, 0.0, 1, 0.0)]
    assert aggregate_earliness(reports) == (0.5, 0.5)


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate_earliness([])


def test_payload_scale_earliness_range():
    # with the longest observed flow length, tiny packet prefixes give
    # earliness values in the reported 4e-6 .. 2.3e-4 band
    total = 511_681
    assert 2 / total == pytest.approx(4e-6, abs=2e-7)
    assert 118 / total == pytest.approx(2.3e-4, abs=1e-5)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_monotonicity_and_idempotence(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    gaps = rng.uniform(0, 0.3, size=n)
    gaps[0] = 0.0
    sample = series(10.0 + np.cumsum(gaps))

    last_e = 0.0
    for count in range(1, n + 2):
        _, report = take_prefix(sample, PrefixSpec.by_count(count))
        assert report.earliness >= last_e
        last_e = report.earliness

    last_de = 0.0
    for t in np.linspace(0, float(gaps.sum()) + 0.1, 8):
        _, report = take_prefix(sample, PrefixSpec.by_duration(float(t)))
        assert report.duration_earliness >= last_de - 1e-12
        last_de = report.duration_earliness

    for spec in (PrefixSpec.by_count(max(1, n // 2)),
                 PrefixSpec.by_duration(float(gaps.sum()) / 2)):
        prefix, r1 = take_prefix(sample, spec)
        again, r2 = take_prefix(prefix, spec)
        assert np.array_equal(prefix.values, again.values)
        assert r2.packets_used == r1.packets_used
