"""Log-domain weight sequences: structure predicates, tail sums, constructions.

A sequence M is represented by an evaluator k -> log M_k (natural logs;
factorial-scale magnitudes overflow floats, so nothing is ever exponentiated
except quotients).  Quotients mu_k = M_k / M_{k-1} drive everything:
log-convexity is "mu increasing", non-quasianalyticity is "sum 1/mu_k finite",
and the reciprocal-quotient tail sum is the main analytic input to the
derived-weight constructions.
"""

from __future__ import annotations

import csv
import io
import math
import threading
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .errors import DivergentTail, NotAWeightSequence, TruncationExhausted
from .verdicts import (
    LOG_TOL,
    Interval,
    Status,
    Verdict,
    _regression_slope,
    combine_all,
    subsample,
    trend_bounded,
    trend_to_infinity,
)

__all__ = [
    "WeightSeq",
    "mu",
    "is_log_convex",
    "is_strongly_log_convex",
    "tail_recip_mu",
    "is_non_quasianalytic",
    "has_moderate_growth",
    "seq_preceq",
    "seq_equivalent",
    "power_shift",
    "log_convex_minorant",
    "require_weight_seq",
    "seq_to_csv",
    "seq_to_json",
    "seq_from_csv",
]

# Default truncation for tail partial sums when no analytic tail is attached.
DEFAULT_TAIL_N = 4096


class WeightSeq:
    """A positive sequence given by a log-domain evaluator.

    Evaluators must accept a float64 numpy array of indices and be pure;
    indices may exceed 2^53 in the far-tail probes of integral transforms,
    which is why they are floats.  `tail`, when present, brackets
    sum_{l>=k} 1/mu_l analytically.  `is_weight_seq` records whether the
    sequence was declared (and validated as) log-convex with mu -> infinity;
    merely positive sequences are accepted but some operations refuse them.
    """

    def __init__(
        self,
        name: str,
        log_m_vec: Callable[[np.ndarray], np.ndarray],
        *,
        tail: Optional[Callable[[int], Interval]] = None,
        is_weight_seq: bool = False,
        max_index: float = math.inf,
        note: str = "",
    ):
        self.name = name
        self._eval = log_m_vec
        self.tail = tail
        self.is_weight_seq = is_weight_seq
        self.max_index = max_index
        self.note = note
        # optional monotone proxy for log mu_k at huge float indices, where
        # differencing the evaluator would lose all precision
        self.quotient_proxy: Optional[Callable[[np.ndarray], np.ndarray]] = None
        # optional far-tail fast paths used only inside quadrature tails:
        # a closed-form twin of log_m, and a direct quotient-count hook
        self.log_m_fast: Optional[Callable[[np.ndarray], np.ndarray]] = None
        self.count_leq: Optional[Callable[[np.ndarray], np.ndarray]] = None
        self._prefix = np.zeros(1)
        self._lock = threading.Lock()
        m0 = float(self.log_m(0))
        if abs(m0) > 1e-12:
            raise ValueError(f"{name}: log M_0 = {m0}, sequences must be normalized to M_0 = 1")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_values(name: str, log_values, *, tail=None, is_weight_seq=False, note="") -> "WeightSeq":
        vals = np.asarray(log_values, dtype=float).copy()
        if abs(vals[0]) > 1e-12:
            note = (note + " " if note else "") + f"shifted by -log M_0 = {-vals[0]:.6g}"
            vals = vals - vals[0]
        nmax = len(vals) - 1

        def ev(kk: np.ndarray) -> np.ndarray:
            kk = np.asarray(kk)
            if np.any(kk > nmax) or np.any(kk < 0):
                raise TruncationExhausted(f"{name}: index beyond truncation {nmax}")
            return vals[np.round(kk).astype(np.int64)]

        seq = WeightSeq(name, ev, tail=tail, is_weight_seq=is_weight_seq, max_index=nmax, note=note)
        seq._prefix = vals
        return seq

    # -- evaluation --------------------------------------------------------

    def log_m(self, k):
        """log M_k for a scalar or array of (possibly huge, float) indices."""
        kk = np.asarray(k, dtype=float)
        out = self._eval(np.atleast_1d(kk))
        return float(out[0]) if kk.ndim == 0 else out

    def values(self, n: int) -> np.ndarray:
        """log M_0 .. log M_n as a cached contiguous prefix."""
        if n > self.max_index:
            raise TruncationExhausted(f"{self.name}: values({n}) beyond truncation {self.max_index}")
        with self._lock:
            if len(self._prefix) <= n:
                self._prefix = self._eval(np.arange(0, n + 1, dtype=float))
            return self._prefix[: n + 1].copy()

    def log_mu(self, n: int) -> np.ndarray:
        """log mu_1 .. log mu_n (index i holds log mu_{i+1})."""
        return np.diff(self.values(n))

    def mu(self, k: int) -> float:
        if k < 1:
            raise ValueError("mu is defined for k >= 1")
        return float(np.exp(self.log_m(k) - self.log_m(k - 1)))

    def renormalized(self) -> "WeightSeq":
        """Rescale by a geometric factor so that mu_1 >= 1, if needed.

        Replaces M_k by M_k h^k with h = 1/mu_1; stays in the equivalence
        class.  The factor is recorded in the name and note.
        """
        lm1 = self.log_m(1)
        if lm1 >= -1e-12:
            return self
        logh = -lm1
        base = self

        def ev(kk: np.ndarray) -> np.ndarray:
            return base._eval(kk) + logh * kk

        tail = None
        if base.tail is not None:
            tail = lambda k: base.tail(k).scale(math.exp(-logh))
        return WeightSeq(
            f"{self.name}*geom({logh:.4g})",
            ev,
            tail=tail,
            is_weight_seq=self.is_weight_seq,
            max_index=self.max_index,
            note=(self.note + " " if self.note else "") + f"renormalized by geometric factor e^{logh:.6g}",
        )

    def __repr__(self) -> str:
        return f"WeightSeq({self.name!r})"


def require_weight_seq(seq: WeightSeq, op: str) -> None:
    if not seq.is_weight_seq:
        raise NotAWeightSequence(f"{op} requires a declared weight sequence, got {seq.name!r}")


# -- operations ------------------------------------------------------------


def mu(seq: WeightSeq, k: int) -> float:
    """Quotient mu_k = M_k / M_{k-1}, from the log evaluator."""
    return seq.mu(k)


def _monotone_check(seq: WeightSeq, n: int, shift: np.ndarray, what: str) -> Verdict:
    vals = seq.log_mu(n + 1) - shift  # entries for k = 1 .. n+1
    diffs = vals[1:] - vals[:-1]  # compares mu_k vs mu_{k+1}, k = 1..n
    bad = np.nonzero(diffs < -LOG_TOL)[0]
    traj = subsample(np.arange(1, len(vals) + 1), vals)
    if len(bad):
        k = int(bad[0]) + 2  # index of the smaller quotient
        return Verdict(
            Status.FAILS,
            relation=what,
            lhs=seq.name,
            witness=k,
            trajectory=traj,
            note=f"{what} drops at k={k}: {vals[k - 2]:.9g} -> {vals[k - 1]:.9g} (logs)",
        )
    return Verdict(Status.HOLDS, relation=what, lhs=seq.name, trajectory=traj)


def is_log_convex(seq: WeightSeq, n: int) -> Verdict:
    """Holds iff mu_k <= mu_{k+1} for 1 <= k < n, within the log tolerance."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _monotone_check(seq, n - 1, np.zeros(n), "log-convexity")


def is_strongly_log_convex(seq: WeightSeq, n: int) -> Verdict:
    """Holds iff mu_k / k is non-decreasing for 1 <= k < n."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _monotone_check(seq, n - 1, np.log(np.arange(1, n + 1, dtype=float)), "strong log-convexity")


def _dyadic_exponent(log_mu: np.ndarray) -> float:
    """Log-log least-squares exponent p of mu_l ~ l^p over the last dyadic
    window l = n/2 .. n, where log_mu holds log mu_1 .. log mu_n."""
    n = len(log_mu)
    lo = n // 2
    return _regression_slope(np.log(np.arange(lo, n + 1, dtype=float)), log_mu[lo - 1 :])


def tail_recip_mu(seq: WeightSeq, k: int, n_max: int = DEFAULT_TAIL_N) -> Interval:
    """Bracket sum_{l >= k} 1/mu_l.

    Uses the analytic tail when attached.  Otherwise: partial sum to n_max,
    remainder bounded below by 0 and above through a power-law minorant
    mu_l >= mu_{n_max} (l/n_max)^p fitted on the last dyadic window (log-log
    least squares); only a fitted exponent p > 1 yields a finite bound.
    """
    if k < 1:
        raise ValueError("tail is defined for k >= 1")
    if seq.tail is not None:
        return seq.tail(k)
    n_max = int(min(n_max, seq.max_index))
    if k > n_max:
        raise ValueError(f"tail start {k} beyond partial-sum range {n_max}")
    log_mu = seq.log_mu(n_max)  # k = 1..n_max
    partial = float(np.exp(-log_mu[k - 1 :]).sum())
    p = _dyadic_exponent(log_mu)
    if p > 1.0 + 1e-6:  # margin: a harmonic quotient fits p = 1 up to rounding
        rem_hi = n_max / ((p - 1.0) * math.exp(log_mu[-1]))
        return Interval(partial, partial + rem_hi)
    return Interval(partial, math.inf)


def tail_mids(seq: WeightSeq, n: int, n_max: int = DEFAULT_TAIL_N) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, mid, hi) arrays of the tail bracket for k = 1..n (index k-1).

    Raises DivergentTail when an upper end is not finite.
    """
    if seq.tail is not None:
        ivals = [seq.tail(k) for k in range(1, n + 1)]
        lo = np.array([i.lo for i in ivals])
        hi = np.array([i.hi for i in ivals])
    else:
        n_max = int(min(max(n_max, 2 * n), seq.max_index))
        base = tail_recip_mu(seq, 1, n_max)
        rem_hi = base.hi - base.lo  # fitted remainder beyond n_max
        recip = np.exp(-seq.log_mu(n_max))
        suffix = np.concatenate([np.cumsum(recip[::-1])[::-1], [0.0]])
        lo = suffix[:n]
        hi = suffix[:n] + rem_hi
    if not np.all(np.isfinite(hi)):
        raise DivergentTail(f"{seq.name}: reciprocal-quotient tail has no finite bracket")
    return lo, 0.5 * (lo + hi), hi


def is_non_quasianalytic(seq: WeightSeq, n_max: int = DEFAULT_TAIL_N) -> Verdict:
    """Holds iff the reciprocal-quotient tail has a finite upper bracket.

    Fails when divergence is certified by mu_k staying within a constant
    multiple of k (harmonic comparison); otherwise Inconclusive.
    """
    bracket = tail_recip_mu(seq, 1, n_max)
    if math.isfinite(bracket.hi):
        return Verdict(
            Status.HOLDS,
            relation="non-quasianalytic",
            lhs=seq.name,
            witness=bracket,
            note=f"sum 1/mu bracketed by [{bracket.lo:.9g}, {bracket.hi:.9g}]",
        )
    n_eff = int(min(n_max, seq.max_index))
    ratio = seq.log_mu(n_eff) - np.log(np.arange(1, n_eff + 1, dtype=float))
    v = trend_bounded(ratio, relation="non-quasianalytic", lhs=seq.name)
    if v.holds:  # mu_k <= c k persistently: harmonic minorant diverges
        return Verdict(
            Status.FAILS,
            relation="non-quasianalytic",
            lhs=seq.name,
            witness=v.witness,
            trajectory=v.trajectory,
            note="divergence certified: mu_k/k bounded, so sum 1/mu_k >= harmonic tail",
        )
    return Verdict(
        Status.INCONCLUSIVE,
        relation="non-quasianalytic",
        lhs=seq.name,
        trajectory=v.trajectory,
        note="no finite bracket and no divergence certificate",
    )


def has_moderate_growth(seq: WeightSeq, n: int) -> Verdict:
    """Trend test on sup_{j+k<=n} (log M_{j+k} - log M_j - log M_k)/(j+k)."""
    vals = seq.values(n)
    gap, argj = _kernels.pair_gap_max(vals, vals)
    ms = np.arange(2, n + 1)
    d = gap[2:] / ms
    v = trend_bounded(d, ms, relation="moderate-growth", lhs=seq.name)
    m_star = int(ms[np.argmax(d)])
    j_star = int(argj[m_star])
    v.witness = (j_star, m_star - j_star)
    v.note = f"C-exponent estimate {float(np.max(d[len(d) // 2 :])):.6g}; " + v.note
    return v


def seq_preceq(m: WeightSeq, n: WeightSeq, n_terms: int) -> Verdict:
    """Trend test for sup_k (M_k/N_k)^{1/k} < infinity (log domain)."""
    r = (m.values(n_terms)[1:] - n.values(n_terms)[1:]) / np.arange(1, n_terms + 1)
    return trend_bounded(r, relation="preceq", lhs=m.name, rhs=n.name)


def seq_equivalent(m: WeightSeq, n: WeightSeq, n_terms: int) -> Verdict:
    """Both preceq directions; Inconclusive dominates Fails-free mixtures."""
    fwd = seq_preceq(m, n, n_terms)
    bwd = seq_preceq(n, m, n_terms)
    status = combine_all([fwd, bwd])
    return Verdict(
        status,
        relation="equivalent",
        lhs=m.name,
        rhs=n.name,
        witness={"forward": fwd.status.value, "backward": bwd.status.value},
        note=f"preceq forward={fwd.status.value}, backward={bwd.status.value}",
    )


def power_shift(seq: WeightSeq, n: int) -> WeightSeq:
    """The index-dilated sequence with log M^[n]_j = log M_{n j} / n.

    Its reciprocal-quotient tail is bracketed from the base tail using
    monotonicity of mu: (1/n) tail(nk) <= sum_{j>=k} 1/mu^[n]_j
    <= (1/n) tail(n(k-2)+2) for k >= 2.
    """
    require_weight_seq(seq, "power_shift")
    if n < 1:
        raise ValueError("shift order must be a positive integer")
    if n == 1:
        return seq
    base = seq

    def ev(kk: np.ndarray) -> np.ndarray:
        return base._eval(kk * n) / n

    def shifted_tail(k: int) -> Interval:
        if k < 1:
            raise ValueError("tail start must be >= 1")
        if k == 1:
            inner = shifted_tail(2)
            inv_mu1 = math.exp(-base.log_m(n) / n)
            return Interval(inner.lo + inv_mu1, inner.hi + inv_mu1)
        n_max = max(DEFAULT_TAIL_N, 4 * n * k)
        lo = tail_recip_mu(base, n * k, n_max).lo / n
        hi = tail_recip_mu(base, n * (k - 2) + 2, n_max).hi / n
        return Interval(min(lo, hi), hi)

    return WeightSeq(
        f"{seq.name}^[{n}]",
        ev,
        tail=shifted_tail,
        is_weight_seq=seq.is_weight_seq,
        max_index=seq.max_index / n,
        note=f"power shift of {seq.name} by {n}",
    )


def log_convex_minorant(seq: WeightSeq, n: int) -> WeightSeq:
    """Largest log-convex minorant on the truncation k <= n.

    Lower convex hull of (k, log M_k) computed with a look-ahead buffer
    B = max(16, n/4) (clamped to the available domain), then truncated to n:
    the hull value at k depends on later points, and the buffer makes the
    boundary distortion negligible for sequences with M_k^{1/k} -> infinity.
    """
    buffer = max(16, n // 4)
    if math.isfinite(seq.max_index):
        buffer = min(buffer, int(seq.max_index) - n)
        buffer = max(buffer, 0)
    vals = seq.values(n + buffer)
    hull = _kernels.lower_hull(vals)[: n + 1]
    return WeightSeq.from_values(
        f"minorant({seq.name})",
        hull,
        is_weight_seq=seq.is_weight_seq,
        note=f"lower convex hull on [0, {n + buffer}], truncated to {n}",
    )


# -- serialization ---------------------------------------------------------


def seq_to_csv(seq: WeightSeq, n: int, out=None) -> str:
    """Columns (k, log_m, mu); mu is empty at k = 0.  LF endings, '.' decimal."""
    vals = seq.values(n)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["k", "log_m", "mu"])
    w.writerow([0, repr(float(vals[0])), ""])
    mus = np.exp(np.diff(vals))
    for k in range(1, n + 1):
        w.writerow([k, repr(float(vals[k])), repr(float(mus[k - 1]))])
    text = buf.getvalue()
    if out is not None:
        out.write(text)
    return text


def seq_to_json(seq: WeightSeq, n: int) -> dict:
    if seq.tail is not None:
        tail_kind = "analytic"
    elif math.isinf(seq.max_index):
        tail_kind = "integral-test"
    else:
        tail_kind = "none"
    return {
        "name": seq.name,
        "n": n,
        "log_m": [float(v) for v in seq.values(n)],
        "tail_kind": tail_kind,
    }


def seq_from_csv(name: str, text: str, *, is_weight_seq: bool = False) -> WeightSeq:
    """Read (k, log_m) rows.  A declared weight sequence must be log-convex on
    the rows given; a quotient drop beyond LOG_TOL raises NotAWeightSequence."""
    rows = list(csv.DictReader(io.StringIO(text)))
    ks = [int(r["k"]) for r in rows]
    if ks != list(range(len(ks))):
        raise ValueError("CSV must list k = 0..n contiguously")
    vals = np.array([float(r["log_m"]) for r in rows])
    seq = WeightSeq.from_values(name, vals, is_weight_seq=is_weight_seq)
    if is_weight_seq and len(vals) > 2:
        convex = is_log_convex(seq, len(vals) - 1)
        if convex.fails:
            raise NotAWeightSequence(f"{name}: declared a weight sequence, but {convex.note}")
    return seq.renormalized()
