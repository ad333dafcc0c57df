"""Write tests/data/oracle.json: kappa and the harmonic extension P of
catalog weights, and the derived weight K of Gevrey sequences, computed from
their definitions at 30 digits.

Run by hand, from the repository root, when the set of cases changes:

    python tests/make_oracle.py

It needs mpmath (written with 1.3.0) and numpy, and imports nothing from
`ultraweights`, so that the values check the package from outside.  The
test suite reads only the JSON and never imports mpmath.

Each case names its function by a catalog URI.  A `seq:` URI stands for the
tilde representative omega~(t) = omega_M(t) + log(1 + t^2) of that sequence,
where omega_M(t) = sum_j log+(t/mu_j) for the quotients mu_j; a `fn:` URI
is the catalog function itself.  Each value is stored as a decimal string,
with `err`, a bound on its own error:

  - kappa of omega~: sum_{mu_j <= t} (log(t/mu_j) + 1) + t T with T =
    sum_{mu_j > t} 1/mu_j, plus log(1 + t^2) + 2 t arctan(1/t).  For the
    Gevrey sequences (mu_j = j^s) the first sum is k (log t + 1) - s log k!
    and T is the Hurwitz zeta value zeta(s, k + 1).  For the exp-Gevrey
    members (mu_j = j^2 e^(a j)) T is summed term by term; the terms fall by
    more than e^-a each, so the part left out is below the last term
    summed times e^-a / (1 - e^-a).
  - P of omega~ at ir: (2/pi) sum_j Ti2(r/mu_j) + 2 log(1 + r), with Ti2(x)
    = Im Li2(i x) from `mpmath.polylog`.  For the Gevrey sequences the terms
    past J, the first j with mu_j >= 4r, are the series sum_m (-1)^m
    r^(2m+1) zeta(s(2m+1), J)/(2m+1)^2, an alternating series whose omitted
    part is below its first omitted term.  For the exp-Gevrey members the
    sum stops where r/mu_j falls below the working precision, and the part
    left out is below r/mu_j e^-a / (1 - e^-a), as Ti2(x) <= x.
  - power t^beta and (log+ t)^2: `mpmath.quad` of the defining integrals
    kappa(t) = int_0^inf omega(t e^u) e^-u du and P(ir) = (2/pi)
    int_0^inf omega(r s)/(1 + s^2) ds, with the quadrature's own error
    estimate.
  - log K_j = sup_{y >= 0} (j y - kappa(y) + kappa(0)) of omega~ of a
    Gevrey sequence, y = log t, with kappa as above.  The objective F is
    concave, and F' = j - kappa' with kappa' = kappa - phi (integration by
    parts of kappa(y) = int_0^inf phi(y + u) e^-u du, phi(y) = omega~(e^y)).
    Where kappa'(0) >= j the sup is F(0) = 0 exactly.  Otherwise the root
    of F' is bisected K_HALVINGS times from a bracket [0, Y] with F'(Y) < 0,
    and F is taken at the last midpoint m; the tangent F(m) + F'(m) (y - m)
    bounds F above, so the sup is at most |F'(m)| times the half width
    above F(m), plus the error bounds of the two kappa values.
To each bound the script adds the rounding of the working precision: eps
times the number of terms and the sum of their magnitudes.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp
import numpy as np

mp.mp.dps = 30
OUT = Path(__file__).resolve().parent / "data" / "oracle.json"

GEVREY = (1.5, 2.0, 3.0)
EXPGEVREY = (0.125, 1.0, 8.0)  # a of the members mu_j = j^2 e^(a j)
SEQ_T = (0.5, 3.0, 100.0, 1e4, 1e6)
SEQ_R = (0.5, 10.0, 1e3, 1e6)
FN_GRID = [float(t) for t in np.exp(np.linspace(0.0, np.log(1e8), 16))]  # `compute fn:... --n 16`
FN_R = (0.1, 0.5)  # below the grid, where log+ t vanishes
K_GEVREY = (2.0, 3.0)
K_J = (1, 2, 3, 5, 8, 12, 64)
K_HALVINGS = 120


def _case(fn: str, at: str, x, value, err) -> dict:
    return {"fn": fn, at: x, "value": mp.nstr(value, 30), "err": float(err)}


def _rounding(terms: int, magnitude) -> mp.mpf:
    return (terms + 8) * mp.eps * magnitude


def _log_term_kappa(t: mp.mpf) -> mp.mpf:
    return mp.log(1 + t * t) + 2 * t * mp.atan(1 / t)


def _count(log_mu, log_t: mp.mpf) -> int:
    """k = #{j >= 1 : log mu_j <= log t}, for increasing log mu_j."""
    k = 0
    while log_mu(k + 1) <= log_t:
        k += 1
    return k


def gevrey_kappa(s: float, t: float) -> tuple:
    s_, t_ = mp.mpf(s), mp.mpf(t)
    k = int(mp.floor(t_ ** (1 / s_)))
    while mp.power(k + 1, s_) <= t_:
        k += 1
    while k > 0 and mp.power(k, s_) > t_:
        k -= 1
    head = k * (mp.log(t_) + 1) - s_ * mp.loggamma(k + 1)
    value = head + t_ * mp.zeta(s_, k + 1) + _log_term_kappa(t_)
    return value, _rounding(16, abs(head) + abs(value))


def gevrey_K(s: float, j: int) -> tuple:
    s_, j_ = mp.mpf(s), mp.mpf(j)

    def kappa_at(y: mp.mpf) -> tuple:
        return gevrey_kappa(s, mp.exp(y))

    def slope(y: mp.mpf) -> mp.mpf:  # kappa' = kappa - phi, phi = omega_M + log(1 + t^2)
        t = mp.exp(y)
        k = _count(lambda i: s_ * mp.log(i), y)
        return kappa_at(y)[0] - (k * y - s_ * mp.loggamma(k + 1) + mp.log(1 + t * t))

    if slope(mp.mpf(0)) >= j_:
        return mp.mpf(0), 0.0
    lo, hi = mp.mpf(0), mp.mpf(1)
    while slope(hi) <= j_:
        lo, hi = hi, 2 * hi
    for _ in range(K_HALVINGS):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if slope(mid) < j_ else (lo, mid)
    m = (lo + hi) / 2
    (k_m, err_m), (k_0, err_0) = kappa_at(m), kappa_at(mp.mpf(0))
    value = j_ * m - k_m + k_0
    tangent = abs(j_ - slope(m)) * (hi - lo) / 2
    return value, tangent + err_m + err_0 + _rounding(4, abs(j_ * m) + abs(k_m) + abs(k_0))


def expgevrey_kappa(a: float, t: float) -> tuple:
    a_, t_ = mp.mpf(a), mp.mpf(t)
    k = _count(lambda j: 2 * mp.log(j) + a_ * j, mp.log(t_))
    head = k * (mp.log(t_) + 1) - 2 * mp.loggamma(k + 1) - a_ * k * (k + 1) / 2
    tail, j, term = mp.mpf(0), k + 1, mp.mpf(1)
    while term > mp.eps * tail / 16:
        term = mp.exp(-a_ * j) / (j * j)
        tail += term
        j += 1
    cut = term * mp.exp(-a_) / -mp.expm1(-a_)
    value = head + t_ * tail + _log_term_kappa(t_)
    return value, t_ * cut + _rounding(j - k + 16, abs(head) + abs(value))


def _ti2(x: mp.mpf) -> mp.mpf:
    return mp.im(mp.polylog(2, mp.mpc(0, x)))


def gevrey_poisson(s: float, r: float) -> tuple:
    s_, r_ = mp.mpf(s), mp.mpf(r)
    J = int(mp.ceil((4 * r_) ** (1 / s_)))  # mu_J >= 4r: the series below converges by 1/16 a term
    head = mp.fsum(_ti2(r_ / mp.power(j, s_)) for j in range(1, J))
    series, m, term = mp.mpf(0), 0, mp.mpf(1)
    while abs(term) > mp.eps * (head + abs(series)) / 16:
        q = s_ * (2 * m + 1)
        term = (-1) ** m * r_ ** (2 * m + 1) * mp.zeta(q, J) / (2 * m + 1) ** 2
        series += term
        m += 1
    cut = abs(r_ ** (2 * m + 1) * mp.zeta(s_ * (2 * m + 1), J)) / (2 * m + 1) ** 2
    value = 2 / mp.pi * (head + series) + 2 * mp.log(1 + r_)
    return value, 2 / mp.pi * cut + _rounding(J + m, value)


def expgevrey_poisson(a: float, r: float) -> tuple:
    a_, r_ = mp.mpf(a), mp.mpf(r)
    total, j, x = mp.mpf(0), 1, mp.mpf(1)
    while True:
        x = r_ / (j * j * mp.exp(a_ * j))
        if x < mp.eps * total / 16:
            break
        total += _ti2(x)
        j += 1
    cut = x / -mp.expm1(-a_)  # the terms from j on, each below x e^(-a (i - j))
    value = 2 / mp.pi * total + 2 * mp.log(1 + r_)
    return value, 2 / mp.pi * cut + _rounding(j, value)


def _quad(f, points) -> tuple:
    value, err = mp.quad(f, points, error=True)
    return value, err + _rounding(len(points), abs(value))


def power_kappa(beta: float, t: float) -> tuple:
    b, t_ = mp.mpf(beta), mp.mpf(t)
    return _quad(lambda u: (t_ * mp.exp(u)) ** b * mp.exp(-u), [0, 1, mp.inf])


def power_poisson(beta: float, r: float) -> tuple:
    b, r_ = mp.mpf(beta), mp.mpf(r)
    value, err = _quad(lambda s: (r_ * s) ** b / (1 + s * s), [0, 1, mp.inf])
    return 2 / mp.pi * value, 2 / mp.pi * err


def logsq_kappa(t: float) -> tuple:
    ell = mp.log(mp.mpf(t))
    return _quad(lambda u: (ell + u) ** 2 * mp.exp(-u), [max(-ell, 0), max(-ell, 0) + 1, mp.inf])


def logsq_poisson(r: float) -> tuple:
    # s = e^v / r: P = (2/pi) int_0^inf v^2 r e^v / (r^2 + e^(2v)) dv, which peaks near v = log r
    r_ = mp.mpf(r)
    peak = max(mp.log(r_), 0)
    value, err = _quad(lambda v: v * v * r_ * mp.exp(v) / (r_ * r_ + mp.exp(2 * v)), [0, peak + 1, peak + 8, mp.inf])
    return 2 / mp.pi * value, 2 / mp.pi * err


def main() -> None:
    kappa, poisson, K = [], [], []
    for s in GEVREY:
        uri = f"seq:gevrey?s={s:g}"
        kappa += [_case(uri, "t", t, *gevrey_kappa(s, t)) for t in SEQ_T]
        radii = SEQ_R + (tuple(float(r) for r in np.exp(np.linspace(-2.0, 10.0, 9))) if s == 2.0 else ())
        poisson += [_case(uri, "r", r, *gevrey_poisson(s, r)) for r in radii]
    for a in EXPGEVREY:
        uri = f"seq:expgevrey?p=2&a={a:g}"
        ts = SEQ_T + ((float(np.exp(20.0)), float(np.exp(50.0)), float(np.exp(400.0))) if a == 8.0 else ())
        kappa += [_case(uri, "t", t, *expgevrey_kappa(a, t)) for t in ts]
        poisson += [_case(uri, "r", r, *expgevrey_poisson(a, r)) for r in SEQ_R]
    for uri, kap, pois in (
        ("fn:power?beta=0.5", lambda t: power_kappa(0.5, t), lambda r: power_poisson(0.5, r)),
        ("fn:power?beta=0.3", lambda t: power_kappa(0.3, t), lambda r: power_poisson(0.3, r)),
        ("fn:logsq", logsq_kappa, logsq_poisson),
    ):
        kappa += [_case(uri, "t", t, *kap(t)) for t in (*FN_R, *FN_GRID)]
        poisson += [_case(uri, "r", r, *pois(r)) for r in (*FN_R, *FN_GRID)]
    for s in K_GEVREY:
        K += [_case(f"seq:gevrey?s={s:g}", "j", j, *gevrey_K(s, j)) for j in K_J]
    doc = {
        "about": "kappa, P and K from their definitions at 30 digits; written by tests/make_oracle.py, see its docstring",
        "mpmath": mp.__version__,
        "dps": mp.mp.dps,
        "kappa": kappa,
        "poisson": poisson,
        "K": K,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
