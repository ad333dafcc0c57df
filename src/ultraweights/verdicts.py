"""Three-valued verdicts, interval brackets, and the finite-data trend tests.

Deciding "sup_k r_k < infinity" from finitely many samples is impossible, so
every asymptotic decision in this package goes through one of the trend tests
below, which compare dyadic tail windows and return an explicit Inconclusive
when the data does not certify either outcome.

Statuses combine through two helpers only:
  - `combine_all`, the conjunction: Fails dominates, then Inconclusive;
  - `first_holding`, the existential: the first Holds wins, Fails only when
    every candidate Fails (so an empty list Fails), else Inconclusive.
`Status.exit_code` is the one table from statuses to CLI exit codes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict, replace
from enum import Enum
from typing import Any

import numpy as np

# Tolerances shared across modules.  Sequence values live in the natural-log
# domain, so comparisons use an additive tolerance on logs.
LOG_TOL = 1e-9
TREND_SLACK = 1e-3
TREND_SLOPE = 0.05
TRAJECTORY_SAMPLES = 24


class Status(Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    INCONCLUSIVE = "Inconclusive"

    def __bool__(self) -> bool:
        return self is Status.HOLDS

    def exit_code(self) -> int:
        """0 for Holds, 1 for Fails, 3 for Inconclusive (2 is a usage error)."""
        return {Status.HOLDS: 0, Status.FAILS: 1, Status.INCONCLUSIVE: 3}[self]


@dataclass(frozen=True)
class Interval:
    """A bracket [lo, hi] around an exactly defined real quantity."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"invalid bracket [{self.lo}, {self.hi}]")

    @property
    def mid(self) -> float:
        if math.isinf(self.hi):
            return self.hi
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def finite(self) -> bool:
        return math.isfinite(self.hi)


@dataclass(frozen=True)
class Verdict:
    """Outcome of an asymptotic check, with the evidence that produced it.

    `witness` is the extremizing index/point (or counterexample location),
    `trajectory` a subsample of the tested functional, `pairing` the
    (alpha, beta) matches found by family-level quantifier searches.
    """

    status: Status
    relation: str = ""
    lhs: str = ""
    rhs: str = ""
    witness: Any = None
    trajectory: list = field(default_factory=list)
    pairing: list = field(default_factory=list)
    grid: list = field(default_factory=list)
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def fails(self) -> bool:
        return self.status is Status.FAILS

    @property
    def inconclusive(self) -> bool:
        return self.status is Status.INCONCLUSIVE

    def exit_code(self) -> int:
        return self.status.exit_code()

    def to_dict(self) -> dict:
        d = asdict(self)
        d["status"] = self.status.value
        d["trajectory_sample"] = d.pop("trajectory")
        return d

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), default=_jsonable, **kw)

    def __repr__(self) -> str:  # keep pytest output readable
        extra = f", witness={self.witness!r}" if self.witness is not None else ""
        note = f", note={self.note!r}" if self.note else ""
        rel = f"{self.relation}: " if self.relation else ""
        return f"Verdict({rel}{self.status.value}{extra}{note})"


def _jsonable(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, Interval):
        return {"lo": x.lo, "hi": x.hi}
    if isinstance(x, Status):
        return x.value
    return str(x)


def combine_all(verdicts) -> Status:
    """Conjunction: Fails dominates, then Inconclusive, then Holds."""
    statuses = [v.status if isinstance(v, Verdict) else v for v in verdicts]
    if any(s is Status.FAILS for s in statuses):
        return Status.FAILS
    if any(s is Status.INCONCLUSIVE for s in statuses):
        return Status.INCONCLUSIVE
    return Status.HOLDS


def first_holding(candidates, test) -> tuple[Status, list]:
    """Existential: `test(c) -> Verdict` on each candidate in order, stopping
    at the first that Holds.  Returns the status (Holds if one holds, Fails
    if every one Fails, Inconclusive otherwise) and the (candidate, verdict)
    pairs tested; when the status is Holds, the last pair is the witness."""
    tried = []
    for c in candidates:
        v = test(c)
        tried.append((c, v))
        if v.holds:
            return Status.HOLDS, tried
    return (Status.FAILS if all(v.fails for _, v in tried) else Status.INCONCLUSIVE), tried


def subsample(xs, values) -> list:
    """Thin a trajectory to at most TRAJECTORY_SAMPLES (x, value) pairs for reports."""
    xs = np.asarray(xs)
    values = np.asarray(values, dtype=float)
    if len(xs) <= TRAJECTORY_SAMPLES:
        idx = np.arange(len(xs))
    else:  # steps over 1 apart: the rounded indices strictly increase
        idx = np.linspace(0, len(xs) - 1, TRAJECTORY_SAMPLES).round().astype(int)
    return [(float(xs[i]), float(values[i])) for i in idx]


def _windows(m: int) -> tuple[slice, slice, slice] | None:
    """Dyadic tail windows [m/8,m/4), [m/4,m/2), [m/2,m] as index slices."""
    if m < 16:
        return None
    w3 = slice(m // 2, m)
    w2 = slice(m // 4, m // 2)
    w1 = slice(m // 8, m // 4)
    return w1, w2, w3


def trend_bounded(values, xs=None, *, relation: str = "", lhs: str = "", rhs: str = "") -> Verdict:
    """Decide whether a sampled functional stays bounded above.

    Holds when the max over the last dyadic window exceeds the max over the
    previous one by at most TREND_SLACK, or when the window maxima increase with
    geometrically decaying increments (ratio <= 3/4), which certifies
    convergence to a finite limit from below.  Fails when the regression of
    the values on log(x) over the last half has slope > TREND_SLOPE, the
    window maxima increase across three consecutive dyadic windows, and the
    slope persists between the last two windows (saturating trajectories
    lose slope; genuine growth keeps it) -- or when a value is +inf, the
    one overflow certificate.  Anything else is Inconclusive: finite data
    cannot decide a sup.
    """
    values = np.asarray(values, dtype=float)
    xs = np.arange(1, len(values) + 1, dtype=float) if xs is None else np.asarray(xs, dtype=float)
    if len(values) != len(xs):
        raise ValueError("values and xs length mismatch")
    meta = dict(relation=relation, lhs=lhs, rhs=rhs, trajectory=subsample(xs, values))

    if np.any(np.isnan(values)):
        i = int(np.argmax(np.isnan(values)))
        return Verdict(Status.INCONCLUSIVE, witness=xs[i], note="NaN in trajectory", **meta)
    overflow = values == np.inf
    if np.any(overflow):
        i = int(np.argmax(overflow))
        return Verdict(Status.FAILS, witness=float(xs[i]), note="overflow growth certificate", **meta)

    m = len(values)
    win = _windows(m)
    if win is None:
        return Verdict(Status.INCONCLUSIVE, note=f"too few samples ({m}) for windowed trend", **meta)
    w1, w2, w3 = win
    m1, m2, m3 = (float(np.max(values[w])) for w in (w1, w2, w3))
    i_max = int(np.argmax(values))
    meta["witness"] = float(xs[i_max])

    if m3 <= m2 + TREND_SLACK:
        return Verdict(Status.HOLDS, note=f"window maxima {m2:.6g} -> {m3:.6g}", **meta)
    gap21, gap32 = m2 - m1, m3 - m2
    if gap21 > 0 and gap32 <= 0.75 * gap21:
        r = gap32 / gap21
        limit = m3 + gap32 * r / (1.0 - r)
        return Verdict(
            Status.HOLDS,
            note=f"window increments decay geometrically (ratio {r:.3g}), extrapolated bound {limit:.6g}",
            **meta,
        )

    half = slice(m // 4, m)
    slope = _regression_slope(np.log(xs[half]), values[half])
    slope2 = _regression_slope(np.log(xs[w2]), values[w2])
    slope3 = _regression_slope(np.log(xs[w3]), values[w3])
    persistent = slope3 >= 0.9 * max(slope2, 0.0)
    if slope > TREND_SLOPE and m2 > m1 + TREND_SLACK and m3 > m2 + TREND_SLACK and persistent:
        return Verdict(
            Status.FAILS,
            note=f"growth certified: slope {slope:.4g} over log x, maxima {m1:.6g} < {m2:.6g} < {m3:.6g}",
            **meta,
        )
    return Verdict(
        Status.INCONCLUSIVE,
        note=f"maxima rose {m2:.6g} -> {m3:.6g}, slope {slope:.4g}"
        + ("" if persistent else f" decaying ({slope2:.4g} -> {slope3:.4g})"),
        **meta,
    )


def _regression_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y on x.  Means and sums are `np.add.reduce`,
    not `@` or `np.mean`: a BLAS dot product with more than one BLAS thread
    costs more in thread hand-offs than the sums take, and the Python
    wrappers of `np.mean` and `np.sum` cost more than the sums of the short
    windows of the trend tests."""
    add, n = np.add.reduce, len(x)
    dx = x - add(x) / n
    prod = y - add(y) / n
    prod *= dx
    dx *= dx
    denom = float(add(dx))
    if denom == 0.0:
        return 0.0
    return float(add(prod)) / denom


def trend_to_infinity(values, xs=None) -> Verdict:
    """Certify that a sampled functional grows without bound (mirror test)."""
    v = trend_bounded(values, xs)
    flip = {Status.HOLDS: Status.FAILS, Status.FAILS: Status.HOLDS, Status.INCONCLUSIVE: Status.INCONCLUSIVE}
    note = {"Fails": "growth certified", "Holds": "trajectory stays bounded"}.get(v.status.value, v.note)
    return Verdict(flip[v.status], witness=v.witness, trajectory=v.trajectory, note=note)


def trend_liminf_positive(log_values, xs=None, *, relation: str = "", lhs: str = "") -> Verdict:
    """Decide whether a positive sampled functional v stays bounded away from 0,
    given log v.

    liminf v > 0 iff sup(-log v) < infinity, so this reuses `trend_bounded`
    on -log v; log v = -inf (v = 0) becomes an overflow certificate.  The
    trajectory holds the sampled log values.
    """
    log_values = np.asarray(log_values, dtype=float)
    v = trend_bounded(-log_values, xs, relation=relation, lhs=lhs)
    xs_arr = np.arange(1, len(log_values) + 1) if xs is None else np.asarray(xs)
    prefix = {Status.HOLDS: "liminf bounded away from zero: ",
              Status.FAILS: "decay to zero certified: "}.get(v.status, "")
    return replace(v, trajectory=subsample(xs_arr, log_values), note=prefix + v.note)
