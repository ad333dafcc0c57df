"""Built-in weight families with closed-form evaluators, tails, and envelopes.

These entries are the ground truth of the test suite: each carries tightly
bracketed log tail sums over index arrays and, where available, the closed
forms of the integral transforms kappa and P, through which every transform
of a catalog function is evaluated, and the closed-form maximizer of the
Young conjugate, which `phi_star` evaluates through.  Entries are
addressed by URI-like names, e.g. seq:gevrey?s=2, fn:power?beta=0.5,
mat:omega?fn=power&beta=0.5.  The registry `_ENTRIES` is the one list of
them: `entries()` lists it and `resolve` dispatches through it, calling the
entry's `make(params, grid)`; `seq:csv?path=...` is the one unlisted URI.

Functions and their kappa/P references take y = log t; maximizers take x.
Closed forms used:
  - Gevrey index s: log M_k = s log k!, mu_k = k^s, tail sum the Hurwitz
    zeta value zeta(s, k): exact terms plus an Euler-Maclaurin remainder.
  - geometric-quadratic base q: log M_k = k^2 log q, mu_k = q^{2k-1},
    exact geometric tails.
  - power weight t^beta: phi = kappa (1-beta) = P cos(pi beta/2) = e^(beta y),
    conjugate (x/beta)(log(x/beta) - 1) for x >= beta, at y = log(x/beta)/beta.
  - squared-log weight (max(0, log t))^2: phi = max(y, 0)^2, kappa =
    y^2 + 2y + 2 for y >= 0 (2e^y below), P(ir) = l^2 + pi^2/4 - (4/pi)
    Ti3(e^-l) for l = log r >= 0 ((4/pi) Ti3(e^l) below), conjugate x^2/4
    at y = x/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable
from urllib.parse import parse_qsl

import numpy as np

from .errors import CatalogError
from .func_core import Envelope, WeightFn, WeightMatrix, _ti3, matrix_from_omega
from .seq_core import LogRange, SeriesTail, WeightSeq, seq_from_csv

__all__ = [
    "make_gevrey",
    "make_factorial",
    "make_q_gevrey",
    "make_exp_gevrey_member",
    "make_power_weight",
    "make_log_square_weight",
    "make_linear_weight",
    "constant_matrix",
    "exp_gevrey_matrix",
    "resolve",
    "entries",
    "CatalogEntry",
]

_TAIL_HEAD = 64  # exact terms summed past the largest index before a remainder bound


def gammaln(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) for a float array of x > 0: math.lgamma below 20, above it
    Stirling's series to the z^-7 term (truncation error below 2e-15)."""
    z = np.maximum(x, 20.0)
    r = 1.0 / z
    out = (z - 0.5) * np.log(z) - z + 0.5 * math.log(2.0 * math.pi) + r * (
        1.0 / 12.0 - r * r * (1.0 / 360.0 - r * r * (1.0 / 1260.0 - r * r / 1680.0)))
    out[x < 20.0] = np.frompyfunc(math.lgamma, 1, 1)(x[x < 20.0])
    return out


# -- sequences ---------------------------------------------------------------


def make_gevrey(s: float) -> WeightSeq:
    """The factorial-power sequence log M_k = s log k!, quotients mu_k = k^s.

    Non-quasianalytic exactly when s > 1; s <= 1 is rejected (the harmonic
    boundary).  Tails: exact terms up to 64 past the largest index, then from
    K on sum_{l>=K} l^-s = K^{1-s}/(s-1) (1 + (s-1)/(2K) + s(s-1)/(12K^2)
    - theta (s-1)s(s+1)(s+2)/(720K^4)) with theta in [0, 1] (Euler-Maclaurin;
    x^-s is completely monotone), and at least the integral K^{1-s}/(s-1).
    """
    if not s > 1:
        raise ValueError(f"gevrey index must be > 1 (got {s}); s = 1 is the quasianalytic boundary")

    def ev(kk: np.ndarray) -> np.ndarray:
        return s * gammaln(kk + 1.0)

    def log_rem(K: float) -> LogRange:
        x = 1.0 / K
        c_hi = 1.0 + (s - 1.0) * x / 2.0 + (s - 1.0) * s * x * x / 12.0
        c_lo = max(c_hi - (s - 1.0) * s * (s + 1.0) * (s + 2.0) * x**4 / 720.0, 1.0)
        base = (1.0 - s) * math.log(K) - math.log(s - 1.0)
        return LogRange(base + math.log(c_lo), base + math.log(c_hi))

    def neg_log_mu(js: np.ndarray) -> None:  # -s log j, over js
        np.log(js, out=js)
        js *= -s

    log_tail = SeriesTail(neg_log_mu, _TAIL_HEAD, log_rem)
    return WeightSeq(f"gevrey(s={s:g})", ev, log_tail=log_tail, is_weight_seq=True)


def make_factorial() -> WeightSeq:
    """log M_k = log k!: quasianalytic (harmonic quotient tail), still a weight sequence."""
    return WeightSeq("factorial", lambda kk: gammaln(kk + 1.0), is_weight_seq=True)


def make_q_gevrey(q: float) -> WeightSeq:
    """log M_k = k^2 log q for q > 1: geometric quotients q^{2k-1}, exact tails.

    The standard example without moderate growth.
    """
    if not q > 1:
        raise ValueError("base must be > 1")
    lq = math.log(q)

    def log_rem(top: float) -> LogRange:  # the exact geometric tail
        v = -(2.0 * top - 1.0) * lq - math.log(-math.expm1(-2.0 * lq))
        return LogRange(v, v)

    def neg_log_mu(js: np.ndarray) -> None:  # -(2j - 1) log q, over js
        js *= 2.0
        js -= 1.0
        np.negative(js, out=js)
        js *= lq

    log_tail = SeriesTail(neg_log_mu, 0, log_rem)
    return WeightSeq(f"qgevrey(q={q:g})", lambda kk: kk**2 * lq, log_tail=log_tail, is_weight_seq=True)


def make_exp_gevrey_member(p: float, a: float) -> WeightSeq:
    """Mixed polynomial-geometric quotients mu_k = k^p e^{a k}.

    log M_k = p log k! + a k(k+1)/2.  Tail bracketed by exact terms plus a
    geometric remainder bound.  As a one-parameter family in `a`
    this is the catalog's example where the inverse-moderate-growth and
    shifted-liminf conditions genuinely hold together.
    """
    if p < 0 or a <= 0:
        raise ValueError("need p >= 0 and a > 0")

    def ev(kk: np.ndarray) -> np.ndarray:
        return p * gammaln(kk + 1.0) + a * kk * (kk + 1.0) / 2.0

    def neg_log_mu(js: np.ndarray) -> None:  # -(p log j + a j), over js
        p_log = np.log(js)
        p_log *= p
        js *= a
        js += p_log
        np.negative(js, out=js)

    def log_rem(top: float) -> LogRange:  # mu_j / mu_{j+1} stays below e^-a
        term = np.array([top])
        neg_log_mu(term)
        return LogRange(-math.inf, float(term[0]) - math.log(-math.expm1(-a)))

    log_tail = SeriesTail(neg_log_mu, max(_TAIL_HEAD, int(40.0 / a)), log_rem)
    return WeightSeq(f"expgevrey(p={p:g},a={a:g})", ev, log_tail=log_tail, is_weight_seq=True)


# -- functions -----------------------------------------------------------------


def make_power_weight(beta: float) -> WeightFn:
    """omega(t) = t^beta for beta in (0,1): the strong weight workhorse.

    Exact envelope (beta, 0, 1).  Attached closed forms: kappa =
    t^beta/(1-beta), P(ir) = r^beta / cos(pi beta / 2), and the conjugate's
    maximizer log(x/beta)/beta for x >= beta, where the conjugate is
    (x/beta)(log(x/beta)-1), and 0 below (the objective peaks at the y = 0
    boundary there, at -1).
    """
    if not 0 < beta < 1:
        raise ValueError("exponent must lie in (0, 1)")

    def phi(ys):
        return np.exp(beta * ys)

    def maximizer(xs):
        with np.errstate(divide="ignore"):  # log 0 = -inf at x = 0
            return np.maximum(np.log(xs / beta) / beta, 0.0)

    return WeightFn(
        f"power(beta={beta:g})",
        phi,
        envelope=Envelope(beta, 0.0, 1.0),
        kappa_ref=lambda ys: phi(ys) / (1.0 - beta),
        poisson_ref=lambda ys: phi(ys) / math.cos(0.5 * math.pi * beta),
        maximizer=maximizer,
    )


def make_log_square_weight() -> WeightFn:
    """omega(t) = (max(0, log t))^2: a normalized pre-weight with phi(y) = max(y, 0)^2.

    It is non-quasianalytic and doubling but has no growth-doubling constant
    (no H with 2 omega(t) <= omega(Ht) + H), so the members of its canonical
    matrix are inequivalent.  kappa = y^2 + 2y + 2 for y >= 0 and 2e^y
    below; conjugate x^2/4, at the maximizer y = x/2.

    P: (log+ t)^2 = 2 int_0^inf log+(t e^-v) dv, and log+(t/mu) extends to
    (2/pi) Ti2(r/mu) at ir, so P(ir) = (4/pi) int_0^inf Ti2(r e^-v) dv =
    (4/pi) Ti3(r) for r <= 1.  Past 1, Ti2(x) = Ti2(1/x) + (pi/2) log x gives
    P = l^2 + pi^2/4 - (4/pi) Ti3(1/r) with l = log r, as Ti3(1) = pi^3/32.
    """

    def kappa_ref(ys):
        y = np.maximum(ys, 0.0)  # no inf - inf at y = -inf (t = 0)
        return np.where(ys >= 0.0, y * y + 2.0 * y + 2.0, 2.0 * np.exp(np.minimum(ys, 0.0)))

    def poisson_ref(ys):
        ti3 = (4.0 / math.pi) * _ti3(np.exp(-np.abs(ys)))
        return np.where(ys >= 0.0, ys * ys + 0.25 * math.pi**2 - ti3, ti3)

    return WeightFn(
        "logsq",
        lambda ys: np.maximum(ys, 0.0) ** 2,
        envelope=Envelope(0.5, 17.0, 1.0),  # max(y^2 - e^(y/2)) ~ 16.31
        kappa_ref=kappa_ref,
        poisson_ref=poisson_ref,
        maximizer=lambda xs: xs / 2.0,
    )


def make_linear_weight() -> WeightFn:
    """omega(t) = t, phi(y) = e^y: quasianalytic; conjugate x log x - x for x >= 1,
    at the maximizer y = log x, and -1 below, at y = 0.

    No envelope is attached (no theta < 1 works), so the integral transforms
    refuse it; it exercises the conjugate and predicate paths.
    """

    def maximizer(xs):
        with np.errstate(divide="ignore"):  # log 0 = -inf at x = 0
            return np.maximum(np.log(xs), 0.0)

    return WeightFn(
        "linear",
        np.exp,
        envelope=None,
        maximizer=maximizer,
    )


# -- matrices ------------------------------------------------------------------


def constant_matrix(seq: WeightSeq, grid=None) -> WeightMatrix:
    """The one-parameter family whose every member is the same sequence."""
    return WeightMatrix(
        f"constant[{seq.name}]",
        lambda alpha: seq,
        grid=grid,
        provenance={"source": seq.name, "construction": "constant family"},
    )


def exp_gevrey_matrix(p: float = 2.0, grid=None) -> WeightMatrix:
    """Family alpha -> mu^(alpha)_k = k^p e^{alpha k}, increasing in alpha."""
    return WeightMatrix(
        f"expgevrey[p={p:g}]",
        lambda alpha: make_exp_gevrey_member(p, alpha),
        grid=grid,
        provenance={"construction": "polynomial-geometric quotient family", "p": p},
    )


# -- registry and URIs ----------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    kind: str  # sequence | function | matrix
    key: str
    params: str
    doc: str
    make: Callable[[dict[str, str], object], object]  # (URI parameters, matrix grid) -> object


def _omega_matrix(p: dict[str, str], grid) -> WeightMatrix:
    """mat:omega: the canonical matrix of the fn: entry named by `fn`
    (default power, with beta = 0.5 unless given)."""
    kind = p.get("fn", "power")
    fn = _ENTRIES.get(f"fn:{kind}")
    if fn is None:
        raise CatalogError(f"unknown function kind {kind!r}")
    return matrix_from_omega(fn.make({"beta": "0.5"} | p, None), grid=grid)


_ENTRIES = {e.key: e for e in (
    CatalogEntry("sequence", "seq:gevrey", "s > 1", "factorial power (k!)^s; exact terms plus Euler-Maclaurin tails",
                 lambda p, grid: make_gevrey(float(p["s"]))),
    CatalogEntry("sequence", "seq:factorial", "", "k!; quasianalytic reference sequence",
                 lambda p, grid: make_factorial()),
    CatalogEntry("sequence", "seq:qgevrey", "q > 1", "q^(k^2); geometric quotients, no moderate growth",
                 lambda p, grid: make_q_gevrey(float(p["q"]))),
    CatalogEntry("sequence", "seq:expgevrey", "p >= 0, a > 0", "quotients k^p e^(a k)",
                 lambda p, grid: make_exp_gevrey_member(float(p.get("p", 2)), float(p["a"]))),
    CatalogEntry("function", "fn:power", "beta in (0,1)", "t^beta with closed-form transforms",
                 lambda p, grid: make_power_weight(float(p["beta"]))),
    CatalogEntry("function", "fn:logsq", "", "(max(0, log t))^2, normalized pre-weight",
                 lambda p, grid: make_log_square_weight()),
    CatalogEntry("function", "fn:linear", "", "t; quasianalytic, conjugate checks only",
                 lambda p, grid: make_linear_weight()),
    CatalogEntry("matrix", "mat:omega", "fn=power&beta=..., fn=logsq", "canonical matrix of a weight function",
                 _omega_matrix),
    CatalogEntry("matrix", "mat:gevrey", "s > 1", "constant family of a Gevrey sequence",
                 lambda p, grid: constant_matrix(make_gevrey(float(p["s"])), grid=grid)),
    CatalogEntry("matrix", "mat:qgevrey", "q > 1", "constant family of a q-Gevrey sequence",
                 lambda p, grid: constant_matrix(make_q_gevrey(float(p["q"])), grid=grid)),
    CatalogEntry("matrix", "mat:expgevrey", "p >= 0", "family with quotients k^p e^(alpha k)",
                 lambda p, grid: exp_gevrey_matrix(float(p.get("p", 2)), grid=grid)),
)}


def entries() -> list[CatalogEntry]:
    return list(_ENTRIES.values())


def _seq_from_csv(p: dict[str, str]) -> WeightSeq:
    with open(p["path"], "r", encoding="utf-8") as fh:
        return seq_from_csv(p.get("name", p["path"]), fh.read(), is_weight_seq=bool(int(p.get("weight", "0"))))


def resolve(uri: str, grid=None):
    """Resolve a catalog URI to a WeightSeq, WeightFn, or WeightMatrix."""
    if ":" not in uri:
        raise CatalogError(f"malformed entry URI {uri!r}")
    head, _, query = uri.partition("?")
    entry = _ENTRIES.get(head)
    if entry is None and head != "seq:csv":
        raise CatalogError(f"unknown catalog entry {uri!r}")
    p = dict(parse_qsl(query, keep_blank_values=True))
    try:
        return _seq_from_csv(p) if entry is None else entry.make(p, grid)
    except KeyError as e:
        raise CatalogError(f"{uri!r}: missing parameter {e}") from None
    except ValueError as e:
        raise CatalogError(f"{uri!r}: {e}") from None
