import json
import math

import numpy as np
import pytest

from ultraweights.verdicts import (
    TRAJECTORY_SAMPLES,
    _regression_slope,
    Interval,
    Status,
    Verdict,
    combine_all,
    first_holding,
    subsample,
    trend_bounded,
    trend_liminf_positive,
    trend_to_infinity,
)


def test_interval_basics():
    iv = Interval(1.0, 2.0)
    assert iv.mid == 1.5 and iv.width == 1.0 and iv.finite
    assert not Interval(0.0, math.inf).finite
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_verdict_json_roundtrip():
    v = Verdict(Status.HOLDS, relation="preceq", lhs="a", rhs="b", witness=3, note="x")
    d = json.loads(v.to_json())
    assert d["status"] == "Holds" and d["relation"] == "preceq"
    assert "trajectory_sample" in d
    assert v.exit_code() == 0
    assert Verdict(Status.FAILS).exit_code() == 1
    assert Verdict(Status.INCONCLUSIVE).exit_code() == 3


def test_combine_all_ordering():
    H, F, I = Status.HOLDS, Status.FAILS, Status.INCONCLUSIVE
    assert combine_all([Verdict(H), Verdict(H)]) is H
    assert combine_all([Verdict(H), Verdict(I)]) is I
    assert combine_all([Verdict(I), Verdict(F)]) is F
    assert combine_all([]) is H
    assert combine_all([I, H, F]) is F  # bare statuses combine the same way


def test_first_holding_stops_at_the_first_holds():
    H, F, I = Status.HOLDS, Status.FAILS, Status.INCONCLUSIVE
    calls = []

    def test(c):
        calls.append(c)
        return Verdict(c)

    status, tried = first_holding([F, I, H, F], test)
    assert status is H and calls == [F, I, H]
    assert tried[-1][0] is H and tried[-1][1].holds


@pytest.mark.parametrize(
    "candidates, expected",
    [
        ([Status.FAILS, Status.FAILS], Status.FAILS),
        ([Status.FAILS, Status.INCONCLUSIVE, Status.FAILS], Status.INCONCLUSIVE),
        ([], Status.FAILS),
    ],
    ids=["all-fail", "mixed", "empty"],
)
def test_first_holding_without_a_holds(candidates, expected):
    status, tried = first_holding(candidates, Verdict)
    assert status is expected
    assert [c for c, _ in tried] == candidates


def test_exit_code_table():
    assert [s.exit_code() for s in (Status.HOLDS, Status.FAILS, Status.INCONCLUSIVE)] == [0, 1, 3]


def test_trend_bounded_on_constant():
    ks = np.arange(1, 257)
    assert trend_bounded(np.zeros(256), ks).holds


def test_trend_bounded_on_decreasing():
    ks = np.arange(1, 257, dtype=float)
    assert trend_bounded(1.0 / ks, ks).holds


def test_trend_bounded_saturating_fast():
    # c - d log(k)/k converges with geometrically decaying window increments
    ks = np.arange(2, 514, dtype=float)
    v = trend_bounded(1.5 - 3.0 * np.log(ks) / ks, ks)
    assert v.holds


def test_trend_bounded_saturating_slowly_is_not_certified_growth():
    # c - d / log k converges, but so slowly that only a non-Fails outcome
    # is defensible at this scale: the window slope decays
    ks = np.arange(2, 514, dtype=float)
    v = trend_bounded(1.5 - 3.0 / np.log(ks), ks)
    assert not v.fails


def test_trend_bounded_certifies_log_growth():
    ks = np.arange(1, 513, dtype=float)
    v = trend_bounded(np.log(ks), ks)
    assert v.fails


def test_trend_bounded_certifies_power_growth():
    ks = np.arange(1, 513, dtype=float)
    assert trend_bounded(ks**0.25, ks).fails


def test_trend_bounded_overflow_certificate():
    vals = np.zeros(64)
    vals[40] = np.inf
    v = trend_bounded(vals, np.arange(1, 65))
    assert v.fails and "overflow" in v.note and v.witness == 41.0


def test_trend_bounded_large_finite_values_are_no_certificate():
    # a bounded log trajectory above 700 holds: only +inf certifies overflow
    assert trend_bounded(np.full(64, 800.0), np.arange(1, 65)).holds


@pytest.mark.parametrize("n_values, n_xs", [(64, 80), (80, 64)])
def test_trend_bounded_refuses_a_length_mismatch_before_it_subsamples(n_values, n_xs):
    # 64 values with 80 xs once reached `subsample` first and raised IndexError
    with pytest.raises(ValueError, match=r"^values and xs length mismatch$"):
        trend_bounded(np.zeros(n_values), np.arange(1.0, n_xs + 1.0))


def test_regression_slope_matches_exact_sums():
    # the tail fit's length: 65,537 log-log points, against sums of the
    # centred products taken exactly (math.fsum)
    x = np.log(np.arange(65536, 131073, dtype=float))
    y = 2.0 * x + np.sin(np.arange(len(x)))
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    xc, yc = [v - x_mean for v in x], [v - y_mean for v in y]
    want = math.fsum(a * b for a, b in zip(xc, yc)) / math.fsum(a * a for a in xc)
    assert abs(_regression_slope(x, y) - want) <= 1e-13 * abs(want)


def test_trend_bounded_too_short_is_inconclusive():
    assert trend_bounded(np.zeros(8), np.arange(1, 9)).inconclusive


def test_trend_to_infinity_mirrors():
    ks = np.arange(1, 513, dtype=float)
    assert trend_to_infinity(np.log(ks), ks).holds
    assert trend_to_infinity(np.zeros(512), ks).fails


def test_trend_liminf_positive():
    ks = np.arange(1, 513, dtype=float)
    # the functional is given by its logs
    assert trend_liminf_positive(np.full(512, math.log(0.3)), ks).holds
    assert trend_liminf_positive(-np.log(ks), ks).fails
    # a zero in the tail is an immediate decay certificate
    log_vals = np.full(512, math.log(0.3))
    log_vals[-5] = -math.inf
    assert trend_liminf_positive(log_vals, ks).fails


def test_subsample_keeps_distinct_increasing_indices():
    # past TRAJECTORY_SAMPLES the rounded linspace indices step by more than 1
    for n in range(1, 3000):
        xs = np.arange(n)
        picked = [int(x) for x, _ in subsample(xs, xs)]
        assert len(picked) == min(n, TRAJECTORY_SAMPLES) and picked[0] == 0 and picked[-1] == n - 1
        assert all(b > a for a, b in zip(picked, picked[1:])), n
