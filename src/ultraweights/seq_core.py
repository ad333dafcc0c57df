"""Log-domain weight sequences: structure predicates, tail sums, constructions.

A sequence M is represented by an evaluator k -> log M_k (natural logs;
factorial-scale magnitudes overflow floats, so nothing is ever exponentiated
except quotients and terms shifted into the float range).  Quotients
mu_k = M_k / M_{k-1} drive everything: log-convexity is "mu increasing",
non-quasianalyticity is "sum 1/mu_k finite", and the reciprocal-quotient
tail sum T_k = sum_{l>=k} 1/mu_l is the main analytic input to the
derived-weight constructions.
Every tail bracket is one `LogRange`, the log ends of T_k over an index
array (`log_tail_bracket`, `tail_mids`), and so is the remainder of a series
past its exact terms.  Tails are summed from the end a block at a time: each
block is shifted into the float range, exponentiated and summed linearly,
and a block that spans more than the float exponent range is summed with a
logaddexp scan instead, so nothing underflows however fast mu grows.  Every
bracket is read from one `SuffixSums`, the suffix log-sums and remainder of
a series: the attached `SeriesTail`'s or the generic one of the sequence's
own quotients, chosen by `tail_sums`.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional

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
)

__all__ = [
    "WeightSeq",
    "is_log_convex",
    "is_strongly_log_convex",
    "tail_recip_mu",
    "is_non_quasianalytic",
    "has_moderate_growth",
    "seq_preceq",
    "seq_equivalent",
    "log_convex_minorant",
    "require_weight_seq",
    "seq_to_csv",
    "seq_to_json",
    "seq_from_csv",
]

# Default truncation for tail partial sums when no analytic tail is attached.
DEFAULT_TAIL_N = 4096
VALUES_BLOCK = 2**13  # indices evaluated at a time when `WeightSeq.values` grows its prefix
_TAIL_BLOCK = 2**13  # tail terms summed, and bracket entries widened, at a time (64 KiB of temporary each)


@dataclass(frozen=True)
class LogRange:
    """The log ends of a positive quantity, e^lo <= value <= e^hi,
    elementwise over float arrays or scalars.  The ends are not compared on
    construction: `SuffixSums.at` holds a bracket to the memory of its two
    ends, and a full-size comparison would add a temporary of their length."""

    lo: np.ndarray | float
    hi: np.ndarray | float

    @property
    def mid(self) -> np.ndarray | float:
        """Log of the arithmetic midpoint of [e^lo, e^hi], held to the ends:
        where they are equal (an exact remainder) the rounding of the sum
        alone could put it an ulp outside."""
        return np.clip(np.logaddexp(self.lo, self.hi) - math.log(2.0), self.lo, self.hi)


class WeightSeq:
    """A positive sequence given by a log-domain evaluator.

    Evaluators must accept a float64 numpy array of indices, be pure and be
    elementwise: the value at k does not depend on the other indices passed.
    `values(n)` relies on that: it extends its cached prefix log M_0 ..
    log M_m by evaluating only the indices m+1 .. n, VALUES_BLOCK at a time
    into a preallocated array, and returns a read-only view of the prefix
    (a later growth replaces the prefix, so an earlier view keeps its
    values).  The indices are floats because the associated function
    maximizes k y - log M_k over real k past its quotient array, where they
    may exceed 2^53; an evaluator should extend k -> log M_k convexly to
    real k.
    `log_tail`, when present, is a `SeriesTail`: the closed-form terms of
    sum_{l>=k} 1/mu_l and a certified bracket of their remainder.
    `is_weight_seq` records whether the sequence was declared (and validated
    as) log-convex with mu -> infinity; merely positive sequences are
    accepted but some operations refuse them.  `diagnostics` holds the
    by-products of the construction that built the sequence, read-only: it
    is their one channel, and no free-text note is kept.
    """

    def __init__(
        self,
        name: str,
        log_m_vec: Callable[[np.ndarray], np.ndarray],
        *,
        log_tail: Optional[SeriesTail] = None,
        is_weight_seq: bool = False,
        max_index: float = math.inf,
        diagnostics: Optional[Mapping[str, float]] = None,
    ):
        self.name = name
        self._eval = log_m_vec
        self.log_tail = log_tail
        self.is_weight_seq = is_weight_seq
        self.max_index = max_index
        self.diagnostics: Mapping[str, float] = MappingProxyType(dict(diagnostics or {}))
        self._tilde = None  # omega~ of this sequence, built once by `tilde`
        self._prefix = np.zeros(1)
        m0 = float(self.log_m(0))
        if abs(m0) > 1e-12:
            raise ValueError(f"{name}: log M_0 = {m0}, sequences must be normalized to M_0 = 1")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_values(name: str, log_values, *, is_weight_seq=False, diagnostics=None) -> "WeightSeq":
        vals = np.asarray(log_values, dtype=float).copy()
        if abs(vals[0]) > 1e-12:
            vals = vals - vals[0]
        nmax = len(vals) - 1
        ks = np.arange(nmax + 1, dtype=float)

        def ev(kk: np.ndarray) -> np.ndarray:
            kk = np.asarray(kk)
            if np.any(kk > nmax) or np.any(kk < 0):
                raise TruncationExhausted(f"{name}: index beyond truncation {nmax}")
            return np.interp(kk, ks, vals)  # the chords between the values: exact at integer k, inf included

        seq = WeightSeq(name, ev, is_weight_seq=is_weight_seq, max_index=nmax, diagnostics=diagnostics)
        seq._prefix = vals
        return seq

    # -- evaluation --------------------------------------------------------

    def log_m(self, k):
        """log M_k for a scalar or array of (possibly huge, float) indices."""
        kk = np.asarray(k, dtype=float)
        out = self._eval(np.atleast_1d(kk))
        return float(out[0]) if kk.ndim == 0 else out

    def values(self, n: int) -> np.ndarray:
        """log M_0 .. log M_n: a read-only view of the cached contiguous
        prefix, extended by evaluating only the indices past it; log M_0 is
        the exact 0 that the constructor checks."""
        if n > self.max_index:
            raise TruncationExhausted(f"{self.name}: values({n}) beyond truncation {self.max_index}")
        have = len(self._prefix)
        if have <= n:
            grown = np.empty(n + 1)
            grown[:have] = self._prefix
            for i in range(have, n + 1, VALUES_BLOCK):
                grown[i : i + VALUES_BLOCK] = self._eval(np.arange(i, min(i + VALUES_BLOCK, n + 1), dtype=float))
            self._prefix = grown
        view = self._prefix[: n + 1]
        view.flags.writeable = False
        return view

    def log_mu(self, n: int) -> np.ndarray:
        """log mu_1 .. log mu_n (index i holds log mu_{i+1})."""
        return np.diff(self.values(n))

    def tilde(self, build: Callable[["WeightSeq"], Any]) -> Any:
        """omega~ of this sequence: `build(self)` on the first call, the same
        object after it, so that K and Q share one associated-function array."""
        if self._tilde is None:
            self._tilde = build(self)
        return self._tilde

    def __repr__(self) -> str:
        return f"WeightSeq({self.name!r})"


def require_weight_seq(seq: WeightSeq, op: str) -> None:
    if not seq.is_weight_seq:
        raise NotAWeightSequence(f"{op} requires a declared weight sequence, got {seq.name!r}")


# -- operations ------------------------------------------------------------


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


def _tail_exponent(log_mu: np.ndarray) -> float | None:
    """Exponent p of the power-law minorant mu_l >= mu_n (l/n)^p past the
    last quotient, which bounds sum_{l > k} 1/mu_l by k / ((p - 1) mu_k) for
    k >= n; log_mu holds log mu_1 .. log mu_n.  p is the log-log least-squares
    slope over the last dyadic window l = max(n/2, 1) .. n.  None unless
    p > 1 + 1e-6: a harmonic quotient fits p = 1 up to rounding, and its tail
    diverges; a single quotient fits no slope."""
    n = len(log_mu)
    lo = max(n // 2, 1)
    p = _regression_slope(np.log(np.arange(lo, n + 1, dtype=float)), log_mu[lo - 1 :])
    return p if p > 1.0 + 1e-6 else None


def _widen(end: np.ndarray, sign: float) -> None:
    """end -+ 1e-13 -+ 1e-15 |end| in place, in that order, a block at a time
    so that the temporary stays small: the rounding allowance of the suffix
    sums."""
    ulps = np.empty(min(len(end), _TAIL_BLOCK))
    for i in range(0, len(end), _TAIL_BLOCK):
        part = end[i : i + _TAIL_BLOCK]
        u = np.abs(part, out=ulps[: len(part)])
        u *= sign * 1e-15
        part += sign * 1e-13
        part += u


@dataclass(frozen=True)
class SuffixSums:
    """The log bracket of T_k = sum_{j >= k} e^(x_j) + R at k = k0 .. k0 +
    len(sums) - 1, held before its remainder: sums[k - k0] is the log of the
    exact terms' suffix sum, and `rem` is the `LogRange` of R.  `at(ks)`
    adds each remainder end and the rounding allowance of `_widen`.
    Every step is elementwise, so the bracket read at any ks is bit for bit
    the entries of the one over all of them."""

    sums: np.ndarray
    k0: int
    rem: LogRange

    @staticmethod
    def of_terms(x: np.ndarray, k0: int, rem: LogRange) -> "SuffixSums":
        """x holds the log terms of indices k0 .. k0 + len(x) - 2 and one slot
        more, where only R is left.  `_kernels.log_suffix_sums` sums them from
        the end over x, _TAIL_BLOCK terms at a time: O(len(x)) time, linear
        sums of shifted exponentials, accurate to about _TAIL_BLOCK * eps
        relative inside a block plus one rounding per block (Higham, SIAM J.
        Sci. Comput. 14, 1993).  A block whose terms span more than
        the float exponent range keeps a logaddexp scan, so nothing
        underflows however fast mu grows."""
        x[-1] = -math.inf
        _kernels.log_suffix_sums(x, _TAIL_BLOCK)
        return SuffixSums(x, k0, rem)

    def at(self, ks: np.ndarray, spend: bool = False) -> LogRange:
        """The bracket at integer ks.  With `spend`, a contiguous range of ks
        reads the sums as a slice and writes the upper end over them, so a
        one-off bracket holds the memory of its two ends only."""
        view = spend and ks[-1] - ks[0] == len(ks) - 1 and bool(np.all(ks[1:] > ks[:-1]))
        s = self.sums[ks[0] - self.k0 : ks[-1] - self.k0 + 1] if view else self.sums[ks - self.k0]
        # a remainder whose lower end is 0 leaves s as it is: logaddexp(s, -inf) is s
        lo = s.copy() if self.rem.lo == -math.inf else np.logaddexp(s, self.rem.lo)
        hi = np.logaddexp(s, self.rem.hi, out=s)
        _widen(lo, -1.0)
        _widen(hi, 1.0)
        return LogRange(lo, hi)


class SeriesTail:
    """The attached tail T_k = sum_{j >= k} e^(neg_log_term(j)) of a
    `WeightSeq`: for k = k0 .. k_last, `sums(k0, k_last)` holds the exact
    terms on k0 .. k_last + span and the `LogRange` `log_rem(top)` of the
    rest, widened by the rounding of the sums (1e-13 plus a few ulps).
    `neg_log_term` writes the terms over the index array it is given."""

    def __init__(self, neg_log_term: Callable[[np.ndarray], None], span: int,
                 log_rem: Callable[[float], LogRange]):
        self.neg_log_term, self.span, self.log_rem = neg_log_term, span, log_rem

    def sums(self, k0: int, k_last: int) -> SuffixSums:
        top = k_last + self.span + 1
        terms = np.arange(k0, top + 1, dtype=float)  # the last slot is the remainder's
        self.neg_log_term(terms[:-1])
        return SuffixSums.of_terms(terms, k0, self.log_rem(float(top)))


def _generic_sums(log_mu: np.ndarray, p: float | None) -> SuffixSums:
    """Suffix sums of 1/mu_k for log_mu = log mu_1 .. log mu_n_max; the
    remainder past them lies between 0 and the power-law bound of p, their
    `_tail_exponent`, or +inf when it fits none (p is None)."""
    n_max = len(log_mu)
    log_rem = math.inf if p is None else math.log(n_max / (p - 1.0)) - log_mu[-1]
    terms = np.empty(n_max + 1)
    np.negative(log_mu, out=terms[:-1])
    return SuffixSums.of_terms(terms, 1, LogRange(-math.inf, log_rem))


def tail_sums(seq: WeightSeq, k0: int, k_last: int, n_max: int,
              fit: tuple[np.ndarray, float | None] | None = None) -> SuffixSums:
    """The suffix sums that bracket T_k at k = k0 .. k_last: the attached
    `SeriesTail`'s, or else the generic ones of `_generic_sums` to
    min(n_max, max_index), up to k = n_max + 1 (TruncationExhausted past it).
    `fit`, when given, is (log mu_1 .. log mu_n_max, its `_tail_exponent`),
    read and fitted once by the caller for the generic sums to reuse."""
    if seq.log_tail is not None:
        return seq.log_tail.sums(k0, k_last)
    n_max = int(min(n_max, seq.max_index))
    if k_last > n_max + 1:
        raise TruncationExhausted(f"{seq.name}: tail start {k_last} beyond partial-sum range {n_max}")
    if fit is None:
        log_mu = seq.log_mu(n_max)
        fit = (log_mu, _tail_exponent(log_mu))
    return _generic_sums(*fit)


def log_tail_bracket(seq: WeightSeq, ks, n_max: int = DEFAULT_TAIL_N) -> LogRange:
    """The `LogRange` of T_k = sum_{l >= k} 1/mu_l at integer ks >= 1.

    Read from `tail_sums`: the attached `SeriesTail` when there is one.
    Otherwise suffix sums to n_max (ks may reach n_max + 1, where only the
    remainder is left), the remainder bounded below by 0 and above through
    the power-law minorant of `_tail_exponent`, or +inf when it fits none.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=np.int64))
    if ks.min() < 1:
        raise ValueError("tail is defined for k >= 1")
    return tail_sums(seq, int(ks.min()), int(ks.max()), n_max).at(ks, spend=True)


def tail_recip_mu(seq: WeightSeq, k: int) -> Interval:
    """Bracket sum_{l >= k} 1/mu_l: `log_tail_bracket` at one index."""
    tail = log_tail_bracket(seq, k)
    return Interval(math.exp(tail.lo[0]), math.exp(tail.hi[0]))


def tail_mids(seq: WeightSeq, n: int) -> LogRange:
    """The tail bracket for k = 1..n (index k-1), whose `mid` the derived
    constructions and relations read; `bench/spans.py` binds this name.

    Generic brackets sum to max(DEFAULT_TAIL_N, 2n).  Raises DivergentTail
    when an upper end is not finite.
    """
    tail = log_tail_bracket(seq, np.arange(1, n + 1), max(DEFAULT_TAIL_N, 2 * n))
    if not np.all(np.isfinite(tail.hi)):
        raise DivergentTail(f"{seq.name}: reciprocal-quotient tail has no finite bracket")
    return tail


def is_non_quasianalytic(seq: WeightSeq) -> Verdict:
    """Holds iff the reciprocal-quotient tail has a finite upper bracket.

    Fails when divergence is certified by mu_k staying within a constant
    multiple of k (harmonic comparison); otherwise Inconclusive.
    """
    bracket = tail_recip_mu(seq, 1)
    if math.isfinite(bracket.hi):
        return Verdict(
            Status.HOLDS,
            relation="non-quasianalytic",
            lhs=seq.name,
            witness=bracket,
            note=f"sum 1/mu bracketed by [{bracket.lo:.9g}, {bracket.hi:.9g}]",
        )
    n_eff = int(min(DEFAULT_TAIL_N, seq.max_index))
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
    if len(d) == 0:  # n < 2: no pair j + k <= n, Inconclusive for too few samples
        return v
    m_star = int(ms[np.argmax(d)])
    j_star = int(argj[m_star])
    return replace(v, witness=(j_star, m_star - j_star),
                   note=f"C-exponent estimate {float(np.max(d[len(d) // 2 :])):.6g}; " + v.note)


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


def log_convex_minorant(seq: WeightSeq, n: int) -> WeightSeq:
    """Largest log-convex minorant on the truncation k <= n.

    Lower convex hull of (k, log M_k) computed with a look-ahead buffer
    B = max(16, n/4) (clamped to the available domain), then truncated to n:
    the hull value at k depends on later points, and the buffer makes the
    boundary distortion negligible for sequences with M_k^{1/k} -> infinity.
    The result is log-convex by construction, so it is declared a weight
    sequence whatever its input was.
    """
    buffer = max(16, n // 4)
    if math.isfinite(seq.max_index):
        buffer = min(buffer, int(seq.max_index) - n)
        buffer = max(buffer, 0)
    vals = seq.values(n + buffer)
    hull = _kernels.lower_hull(vals)[: n + 1]
    return WeightSeq.from_values(f"minorant({seq.name})", hull, is_weight_seq=True)


# -- serialization ---------------------------------------------------------


def seq_to_csv(seq: WeightSeq, n: int) -> str:
    """Columns (k, log_m, mu); mu is empty at k = 0.  LF endings, '.' decimal."""
    vals = seq.values(n)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["k", "log_m", "mu"])
    w.writerow([0, repr(float(vals[0])), ""])
    mus = np.exp(np.diff(vals))
    for k in range(1, n + 1):
        w.writerow([k, repr(float(vals[k])), repr(float(mus[k - 1]))])
    return buf.getvalue()


def seq_to_json(seq: WeightSeq, n: int) -> dict:
    if seq.log_tail is not None:
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
    """Read (k, log_m) rows.  A row without a number in either column, or
    with a log_m that is not finite, raises ValueError naming its line.  A
    declared weight sequence must be log-convex on the rows given; a
    quotient drop beyond LOG_TOL raises NotAWeightSequence.  Where mu_1 < 1
    the table is rescaled to log M_k + k log h, h = 1/mu_1, so that mu_1 =
    1: the same equivalence class, with the factor recorded in the name and
    the generic tail brackets."""
    reader = csv.DictReader(io.StringIO(text), restval="")  # a short line gives "", which int and float refuse
    for column in ("k", "log_m"):
        if column not in (reader.fieldnames or ()):
            raise ValueError(f"CSV has no column {column!r}")
    ks, vals = [], []
    for row in reader:
        for column, cast, cells in (("k", int, ks), ("log_m", float, vals)):
            try:
                cells.append(cast(row[column]))
            except ValueError as e:
                raise ValueError(f"line {reader.line_num}, column {column!r}: {e}") from None
        if not math.isfinite(vals[-1]):
            raise ValueError(f"line {reader.line_num}, column 'log_m': {vals[-1]} is not finite")
    if not ks:
        raise ValueError("CSV has no rows")
    if ks != list(range(len(ks))):
        raise ValueError("CSV must list k = 0..n contiguously")
    seq = WeightSeq.from_values(name, vals, is_weight_seq=is_weight_seq)
    if is_weight_seq and len(vals) > 2:
        convex = is_log_convex(seq, len(vals) - 1)
        if convex.fails:
            raise NotAWeightSequence(f"{name}: declared a weight sequence, but {convex.note}")
    log_h = -seq.log_m(1)  # log 1/mu_1; a one-row table has no mu_1: TruncationExhausted
    if log_h <= 1e-12:
        return seq
    log_m = seq.values(len(vals) - 1)
    return WeightSeq.from_values(f"{name}*geom({log_h:.4g})", log_m + log_h * np.arange(len(log_m), dtype=float),
                                 is_weight_seq=is_weight_seq)
