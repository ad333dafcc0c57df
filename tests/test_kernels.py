"""Kernel results against brute force over every pair."""

import numpy as np
import pytest

from ultraweights import _kernels


def _random_logm(rng, n):
    # log-convex: cumulative sums of increasing quotients
    mus = np.sort(rng.uniform(0.0, 3.0, n))
    return np.concatenate([[0.0], np.cumsum(mus)])


def _tied_logm(rng, n):
    # log-convex with runs of equal integer quotients, so ties are exact
    mus = np.sort(rng.integers(0, 12, n)).astype(float)
    return np.concatenate([[0.0], np.cumsum(mus)])


def _brute_min_chord(log_m, coef):
    n = len(log_m) - 1
    js = np.arange(n + 1, dtype=float)
    out = np.zeros(n + 1)
    for k in range(1, n + 1):
        out[k] = np.min((k - js[:k]) * coef[k] + log_m[:k])
    return out


def _brute_sv_sup(log_mp, log_m, log_s):
    n = len(log_mp) - 1
    js = np.arange(n + 1, dtype=float)
    out = np.full(n + 1, -np.inf)
    for j in range(1, n + 1):
        out[j] = np.max((log_mp[j] - j * log_s - log_m[:j]) / (j - js[:j]))
    return out


def test_lower_hull_below_and_convex(rng):
    y = rng.normal(size=64).cumsum()
    h = _kernels.lower_hull(y)
    assert np.all(h <= y + 1e-12)
    assert np.all(np.diff(h, 2) >= -1e-9)
    assert h[0] == y[0] and h[-1] == y[-1]


def test_lower_hull_fixed_point_on_convex():
    y = np.array([0.0, 1.0, 3.0, 6.0, 10.0])
    assert np.allclose(_kernels.lower_hull(y), y)


def test_min_chord_matches_bruteforce(rng):
    n = 40
    log_m = _random_logm(rng, n)
    coef = rng.uniform(-1.0, 2.0, n + 1)
    got = _kernels.min_chord(log_m, coef)
    want = np.zeros(n + 1)
    for k in range(1, n + 1):
        want[k] = min((k - j) * coef[k] + log_m[j] for j in range(k))
    assert np.allclose(got, want)


def test_min_chord_coefficients_outside_the_quotients(rng):
    n = 300
    log_m = _random_logm(rng, n)
    mus = np.diff(log_m)
    ks = np.arange(n + 1)
    below = mus[0] - rng.uniform(0.1, 5.0, n + 1)  # minimizer j* = 0
    got = _kernels.min_chord(log_m, below)
    assert np.array_equal(got[1:], ks[1:] * below[1:] + log_m[0])
    np.testing.assert_allclose(got, _brute_min_chord(log_m, below), rtol=1e-13, atol=1e-12)
    above = mus[-1] + rng.uniform(0.1, 5.0, n + 1)  # minimizer j* = k-1
    got = _kernels.min_chord(log_m, above)
    assert np.array_equal(got[1:], above[1:] + log_m[:-1])
    np.testing.assert_allclose(got, _brute_min_chord(log_m, above), rtol=1e-13, atol=1e-12)


def test_min_chord_coefficients_equal_to_quotients(rng):
    n = 300
    log_m = _tied_logm(rng, n)
    coef = np.diff(log_m)[rng.integers(0, n, n + 1)]  # every coefficient ties some quotient
    assert np.array_equal(_kernels.min_chord(log_m, coef), _brute_min_chord(log_m, coef))


def test_min_chord_nonfinite_coefficients(rng):
    n = 300
    log_m = _random_logm(rng, n)
    coef = rng.uniform(-1.0, 4.0, n + 1)
    coef[rng.choice(np.arange(1, n + 1), 90, replace=False)] = np.repeat([np.inf, -np.inf, np.nan], 30)
    got = _kernels.min_chord(log_m, coef)
    want = _brute_min_chord(log_m, coef)
    finite = np.isfinite(want)
    assert np.sum(~finite) == 90
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-13, atol=1e-12)


def test_sv_sup_matches_bruteforce(rng):
    n = 32
    log_mp = np.concatenate([[0.0], rng.normal(size=n).cumsum()])
    log_m = _random_logm(rng, n)
    got = _kernels.sv_sup(log_mp, log_m, 0.7)
    for j in (1, 5, 17, n):
        want = max((log_mp[j] - j * 0.7 - log_m[i]) / (j - i) for i in range(j))
        assert got[j] == pytest.approx(want)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 8.0, 1024.0])
def test_sv_sup_nonconvex_lhs(rng, s):
    n = 300
    log_m = _tied_logm(rng, n)
    # zig-zag quotients around a convex trend: log_mp is far from log-convex
    zig = np.where(np.arange(n) % 2 == 0, -4.0, 4.0) + rng.normal(scale=3.0, size=n)
    log_mp = np.concatenate([[0.0], np.cumsum(np.sort(rng.integers(0, 12, n)) + zig)])
    got = _kernels.sv_sup(log_mp, log_m, np.log(s))
    want = _brute_sv_sup(log_mp, log_m, np.log(s))
    assert got[0] == -np.inf
    np.testing.assert_allclose(got[1:], want[1:], rtol=1e-13, atol=1e-12)


def test_pair_gap_matches_bruteforce(rng):
    n = 24
    a = _random_logm(rng, n)
    b = _random_logm(rng, n)
    gap, argj = _kernels.pair_gap_max(a, b)
    for m in (2, 7, n):
        want = max(a[m] - b[j] - b[m - j] for j in range(1, m))
        assert gap[m] == pytest.approx(want)
        j = int(argj[m])
        assert a[m] - b[j] - b[m - j] == pytest.approx(want)


def test_assoc_sup_matches_bruteforce(rng):
    log_m = _random_logm(rng, 50)
    ts = rng.uniform(-1.0, 4.0, 7)
    vals, arg = _kernels.assoc_sup(log_m, ts)
    ks = np.arange(len(log_m))
    for i, lt in enumerate(ts):
        table = ks * lt - log_m
        assert vals[i] == pytest.approx(table.max())
        assert arg[i] == int(np.argmax(table))
