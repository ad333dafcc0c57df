"""Numpy kernels behind the derived sequences and the order relations.

Every function takes and returns float64 arrays in the natural-log domain.

`min_chord` and `sv_sup` require `log_m` to have nondecreasing quotients
(log-convex M), which every caller guarantees through `require_weight_seq`.
Under that precondition each inner minimization or maximization is over a
unimodal objective, so a quotient search replaces the scan over all pairs.

`assoc_sup` is the tests' oracle for the associated function and has no
caller in production code, which reads every associated function from the
quotients of a log-convex sequence; it stays because the benchmark's tracer
binds it by name.
"""

from __future__ import annotations

import numpy as np


def lower_hull(y: np.ndarray) -> np.ndarray:
    """Lower convex hull of the points (i, y[i]), evaluated back at every i.

    Monotone-chain over abscissae that are already sorted (0, 1, ..., m-1),
    then piecewise-linear interpolation between hull vertices.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    m = y.shape[0]
    if m <= 2:
        return y.copy()
    hx: list[int] = []
    for i in range(m):
        # pop while the new point makes the previous vertex non-extremal
        while len(hx) >= 2:
            i0, i1 = hx[-2], hx[-1]
            if (y[i1] - y[i0]) * (i - i0) >= (y[i] - y[i0]) * (i1 - i0):
                hx.pop()
            else:
                break
        hx.append(i)
    hxa = np.asarray(hx)
    return np.interp(np.arange(m), hxa, y[hxa])


def min_chord(log_m: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """out[k] = min_{0<=j<k} (k-j)*coef[k] + log_m[j], out[0] = 0.

    Requires nondecreasing quotients diff(log_m).  The objective then falls
    while log mu_{j+1} <= coef[k] and rises after, so the minimizer is
    j* = min(#{quotients <= coef[k]}, k-1): one `searchsorted` for all k.
    out[k] is k*coef[k] minus the discrete Legendre transform of log_m (on
    j < k) at coef[k].  A quotient equal to coef[k] ties two minimizers of
    equal value; an infinite or NaN coefficient gives the same infinity or
    NaN as the full scan.
    """
    log_m = np.asarray(log_m, dtype=np.float64)
    coef = np.asarray(coef, dtype=np.float64)
    n = log_m.shape[0] - 1
    out = np.zeros(n + 1)
    ks = np.arange(1, n + 1)
    c = coef[1 : n + 1]
    j = np.minimum(np.searchsorted(np.diff(log_m), c, side="right"), ks - 1)
    out[1:] = (ks - j) * c + log_m[j]
    return out


def sv_sup(log_mp: np.ndarray, log_m: np.ndarray, log_s: float) -> np.ndarray:
    """out[j] = max_{0<=i<j} (log_mp[j] - j*log_s - log_m[i]) / (j-i), j = 1..n.

    Both arrays hold n+1 terms.  Requires nondecreasing quotients
    diff(log_m); `log_mp` may be any sequence.  With a = log_mp[j] - j*log_s,
    the slope from (i, log_m[i]) to (j, a) rises from i to i+1 iff
    a >= log_m[i+1] + (j-i-1)*diff(log_m)[i], and that threshold is
    nondecreasing in i.  One vectorised bisection over all j (about log2 n
    numpy passes) finds the first i where it exceeds a: the maximizer.
    out[0] is set to -inf as a placeholder.
    """
    log_mp = np.asarray(log_mp, dtype=np.float64)
    log_m = np.asarray(log_m, dtype=np.float64)
    n = log_mp.shape[0] - 1
    out = np.full(n + 1, -np.inf)
    js = np.arange(1, n + 1)
    a = log_mp[1:] - js * log_s
    d = np.diff(log_m)
    lo = np.zeros(n, dtype=np.int64)
    hi = js - 1
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        rises = log_m[mid + 1] + (js - mid - 1) * d[mid] <= a
        lo = np.where(rises, np.minimum(mid + 1, hi), lo)
        hi = np.where(rises, hi, mid)
    out[1:] = (a - log_m[lo]) / (js - lo)
    return out


def pair_gap_max(log_sum: np.ndarray, log_parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gap[m] = max_{1<=j<m} log_sum[m] - log_parts[j] - log_parts[m-j], m = 2..n.

    Returns (gap, argj) with gap[0] = gap[1] = -inf.  Full scan keeps the
    maximizing split as a witness.
    """
    log_sum = np.asarray(log_sum, dtype=np.float64)
    log_parts = np.asarray(log_parts, dtype=np.float64)
    n = log_sum.shape[0] - 1
    gap = np.full(n + 1, -np.inf)
    argj = np.zeros(n + 1, dtype=np.int64)
    for m in range(2, n + 1):
        pair = log_parts[1:m] + log_parts[m - 1 : 0 : -1]
        j = int(np.argmin(pair))
        gap[m] = log_sum[m] - pair[j]
        argj[m] = j + 1
    return gap, argj


def assoc_sup(log_m: np.ndarray, log_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each t: max over k of (k * log_t - log_m[k]) with the first argmax.

    Brute-force evaluation of the associated function of an array-backed
    sequence, kept as the oracle that the tests hold the production
    evaluator to (it binary-searches the quotients of the log-convex
    minorant); no production code calls it, and it stays because the
    benchmark's tracer binds it by name.
    """
    log_m = np.asarray(log_m, dtype=np.float64)
    log_t = np.atleast_1d(np.asarray(log_t, dtype=np.float64))
    ks = np.arange(log_m.shape[0], dtype=np.float64)
    table = np.outer(log_t, ks) - log_m[None, :]
    arg = np.argmax(table, axis=1)
    return table[np.arange(len(log_t)), arg], arg
