"""Comparison relations between sequences, functions, and families.

Each check mirrors one displayed condition from the theory as a
Verdict-producing trend test.  Family-level quantifiers (forall alpha exists
beta) resolve over the declared finite grids; every verdict embeds the grids
and the pairing it found, so reports are self-describing.  Implication
checks never manufacture alarms from heuristic outcomes: an Inconclusive
antecedent or consequent downgrades the implication to a skip.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from . import _kernels
from .errors import DivergentTail
from .func_core import WeightMatrix, kappa_assoc, log_t_grid, _require_envelope
from .derived import _tilde
from .seq_core import WeightSeq, require_weight_seq, seq_preceq, tail_mids
from .verdicts import (
    Status,
    Verdict,
    subsample,
    trend_bounded,
    trend_liminf_positive,
)

__all__ = [
    "prec_SV",
    "prec_gamma1",
    "gamma1_implies_SV_check",
    "cond_Mmg",
    "matrix_braces_preceq",
    "matrix_r_equivalent",
    "r_moderate_growth",
    "cond_liminf",
    "cond_liminf2",
    "cond_roquS",
    "cond_invmg",
    "cond_kappa_doubling",
    "lambda_membership",
    "implication",
    "DEFAULT_S_GRID",
]

DEFAULT_S_GRID = 2.0 ** np.arange(0, 11)
SIGMA_GRID = 2.0 ** np.arange(-10, 11)


def _extended(grid: np.ndarray, steps: int = 2) -> np.ndarray:
    """Existential search grid: the declared grid plus a few dyadic steps up."""
    g = np.asarray(grid, dtype=float)
    return np.concatenate([g, g[-1] * 2.0 ** np.arange(1, steps + 1)])


def prec_SV(mp: WeightSeq, m: WeightSeq, n: int, s_grid=None) -> Verdict:
    """The mixed strong-nonquasianalyticity order: for some integer factor s,

        F_s(j) = exp(sup_{0<=i<j} (log M'_j - j log s - log M_i)/(j-i)) / j * T_j

    stays bounded over j.  Holds when any s on the grid passes the trend
    test, Fails when every s certifies growth, Inconclusive otherwise.
    The inner sup is exact: a bisection over i that relies on M being
    log-convex (`_kernels.sv_sup`); M' may be any positive sequence.
    """
    require_weight_seq(m, "prec_SV rhs")
    s_grid = DEFAULT_S_GRID if s_grid is None else np.asarray(s_grid, dtype=float)
    t_mid = tail_mids(m, n)[1]
    log_mp = mp.values(n)
    log_m = m.values(n)
    js = np.arange(1, n + 1, dtype=float)
    log_j = np.log(js)
    log_t = np.log(np.maximum(t_mid, 1e-300))

    per_s: list[tuple[float, Verdict]] = []
    best = None
    for s in s_grid:
        sup = _kernels.sv_sup(log_mp, log_m, math.log(s))[1:]
        log_f = sup - log_j + log_t
        f = np.exp(np.minimum(log_f, 709.0))
        f[log_f > 709.0] = np.inf
        v = trend_bounded(f, js, relation=f"sv[s={s:g}]", lhs=mp.name, rhs=m.name)
        per_s.append((float(s), v))
        if v.holds:
            best = (float(s), v)
            break
    statuses = [v.status for _, v in per_s]
    pairing = [{"s": s, "status": v.status.value} for s, v in per_s]
    if best is not None:
        s, v = best
        return Verdict(Status.HOLDS, relation="prec_SV", lhs=mp.name, rhs=m.name, witness=s,
                       trajectory=v.trajectory, pairing=pairing, grid=[float(x) for x in s_grid],
                       note=f"bounded with s={s:g}: {v.note}")
    if all(st is Status.FAILS for st in statuses):
        return Verdict(Status.FAILS, relation="prec_SV", lhs=mp.name, rhs=m.name,
                       pairing=pairing, grid=[float(x) for x in s_grid],
                       note="growth certified for every s on the grid")
    return Verdict(Status.INCONCLUSIVE, relation="prec_SV", lhs=mp.name, rhs=m.name,
                   pairing=pairing, grid=[float(x) for x in s_grid],
                   note="no s passes, growth not certified everywhere")


def prec_gamma1(mp: WeightSeq, m: WeightSeq, n: int) -> Verdict:
    """Whitney-extension order: trend test on (mu'_j / j) * T_j."""
    require_weight_seq(m, "prec_gamma1 rhs")
    t_mid = tail_mids(m, n)[1]
    js = np.arange(1, n + 1, dtype=float)
    vals = np.exp(np.minimum(mp.log_mu(n) - np.log(js) + np.log(np.maximum(t_mid, 1e-300)), 709.0))
    return trend_bounded(vals, js, relation="prec_gamma1", lhs=mp.name, rhs=m.name)


def implication(name: str, antecedent: Verdict | Iterable[Verdict], consequent: Verdict | Iterable[Verdict]) -> Verdict:
    """Executable implication between verdicts.

    Fails only when the antecedent Holds and the consequent Fails; a false
    antecedent is vacuously true; any Inconclusive side is reported as a
    skip (Inconclusive status, never Fails).
    """
    ants = [antecedent] if isinstance(antecedent, Verdict) else list(antecedent)
    cons = [consequent] if isinstance(consequent, Verdict) else list(consequent)
    a_status = (Status.FAILS if any(v.fails for v in ants)
                else Status.INCONCLUSIVE if any(v.inconclusive for v in ants) else Status.HOLDS)
    c_status = (Status.FAILS if any(v.fails for v in cons)
                else Status.INCONCLUSIVE if any(v.inconclusive for v in cons) else Status.HOLDS)
    detail = {"antecedent": a_status.value, "consequent": c_status.value}
    if a_status is Status.FAILS:
        return Verdict(Status.HOLDS, relation=name, witness=detail, note="vacuously true (antecedent fails)")
    if a_status is Status.INCONCLUSIVE:
        return Verdict(Status.INCONCLUSIVE, relation=name, witness=detail, note="skipped: antecedent inconclusive")
    if c_status is Status.HOLDS:
        return Verdict(Status.HOLDS, relation=name, witness=detail)
    if c_status is Status.INCONCLUSIVE:
        return Verdict(Status.INCONCLUSIVE, relation=name, witness=detail, note="skipped: consequent inconclusive")
    return Verdict(Status.FAILS, relation=name, witness=detail, note="antecedent holds but consequent fails")


def gamma1_implies_SV_check(mp: WeightSeq, m: WeightSeq, n: int) -> Verdict:
    """Cross-validation: the extension order implies the Borel order."""
    return implication("gamma1=>SV", prec_gamma1(mp, m, n), prec_SV(mp, m, n))


def cond_Mmg(m: WeightSeq, n: int) -> Verdict:
    """liminf (mu_j / j) * sum_{k>=2j} 1/mu_k > 0 (shifted-tail balance)."""
    require_weight_seq(m, "cond_Mmg")
    try:
        _, mid, _ = tail_mids(m, 2 * n)
    except DivergentTail:
        return Verdict(Status.INCONCLUSIVE, relation="shifted-liminf", lhs=m.name,
                       note="tail bracket divergent (quasianalytic input)")
    js = np.arange(1, n + 1, dtype=float)
    t2j = mid[2 * np.arange(1, n + 1) - 1]
    vals = np.exp(m.log_mu(n) - np.log(js)) * t2j
    return trend_liminf_positive(vals, js, relation="shifted-liminf", lhs=m.name)


# -- family-level checks -------------------------------------------------------


def _exists_beta(alpha_grid, beta_grid, test, relation: str, lhs: str, rhs: str) -> Verdict:
    """forall alpha (rows) exists beta (candidates): generic grid quantifier.

    `test(alpha, beta) -> Verdict`.  Records the pairing per alpha; Fails
    only when some alpha fails against every beta with certification.
    """
    pairing = []
    worst = Status.HOLDS
    for a in alpha_grid:
        found = None
        statuses = []
        for b in beta_grid:
            v = test(float(a), float(b))
            statuses.append(v.status)
            if v.holds:
                found = (float(b), v)
                break
        if found is not None:
            pairing.append({"alpha": float(a), "beta": found[0], "status": "Holds"})
            continue
        st = Status.FAILS if all(s is Status.FAILS for s in statuses) else Status.INCONCLUSIVE
        pairing.append({"alpha": float(a), "beta": None, "status": st.value})
        worst = Status.FAILS if st is Status.FAILS else (worst if worst is Status.FAILS else Status.INCONCLUSIVE)
    status = worst if any(p["beta"] is None for p in pairing) else Status.HOLDS
    note = "all parameters matched" if status is Status.HOLDS else "unmatched parameters: " + ", ".join(
        f"{p['alpha']:g}" for p in pairing if p["beta"] is None
    )
    return Verdict(status, relation=relation, lhs=lhs, rhs=rhs, pairing=pairing,
                   grid=[float(x) for x in alpha_grid], note=note)


def matrix_braces_preceq(a: WeightMatrix, b: WeightMatrix, n: int, beta_grid=None) -> Verdict:
    """Family order: every member of `a` is dominated by some member of `b`."""
    beta_grid = _extended(b.grid) if beta_grid is None else np.asarray(beta_grid, dtype=float)

    def test(al: float, be: float) -> Verdict:
        return seq_preceq(a.member(al), b.member(be), n)

    return _exists_beta(a.grid, beta_grid, test, "braces-preceq", a.name, b.name)


def matrix_r_equivalent(a: WeightMatrix, b: WeightMatrix, n: int) -> Verdict:
    fwd = matrix_braces_preceq(a, b, n)
    bwd = matrix_braces_preceq(b, a, n)
    status = (Status.FAILS if Status.FAILS in (fwd.status, bwd.status)
              else Status.INCONCLUSIVE if Status.INCONCLUSIVE in (fwd.status, bwd.status) else Status.HOLDS)
    return Verdict(status, relation="r-equivalent", lhs=a.name, rhs=b.name,
                   witness={"forward": fwd.status.value, "backward": bwd.status.value},
                   pairing=[{"forward": fwd.pairing}, {"backward": bwd.pairing}],
                   note=f"forward {fwd.status.value}, backward {bwd.status.value}")


def r_moderate_growth(mat: WeightMatrix, n: int, beta_grid=None) -> Verdict:
    """Family moderate growth: log M^(a)_{j+k} <= (j+k) log C + log M^(b)_j + log M^(b)_k."""
    beta_grid = _extended(mat.grid) if beta_grid is None else np.asarray(beta_grid, dtype=float)

    def test(al: float, be: float) -> Verdict:
        va = mat.member(al).values(n)
        vb = mat.member(be).values(n)
        gap, _ = _kernels.pair_gap_max(va, vb)
        ms = np.arange(2, n + 1, dtype=float)
        return trend_bounded(gap[2:] / ms, ms)

    return _exists_beta(mat.grid, beta_grid, test, "r-moderate-growth", mat.name, mat.name)


def cond_liminf(mat: WeightMatrix, n: int, beta_grid=None, *, shift: int = 1) -> Verdict:
    """liminf (mu^(b)_k / k) sum_{j >= shift*k} 1/mu^(a)_j > 0, quantified on the grid."""
    beta_grid = _extended(mat.grid) if beta_grid is None else np.asarray(beta_grid, dtype=float)
    rel = "liminf" if shift == 1 else f"liminf{shift}"

    def test(al: float, be: float) -> Verdict:
        ma, mb = mat.member(al), mat.member(be)
        try:
            mid = tail_mids(ma, shift * n)[1]
        except DivergentTail:
            return Verdict(Status.INCONCLUSIVE, relation=rel, note="divergent tail")
        js = np.arange(1, n + 1, dtype=float)
        t_shift = mid[shift * np.arange(1, n + 1) - 1]
        vals = np.exp(mb.log_mu(n) - np.log(js)) * t_shift
        return trend_liminf_positive(vals, js)

    return _exists_beta(mat.grid, beta_grid, test, rel, mat.name, mat.name)


def cond_liminf2(mat: WeightMatrix, n: int, beta_grid=None) -> Verdict:
    return cond_liminf(mat, n, beta_grid, shift=2)


def cond_roquS(s_family: WeightMatrix, n: int, beta_grid=None) -> Verdict:
    """sigma^(a)_j <= A (S^(b)_j)^{1/j}: root-quotient domination inside the S family."""
    beta_grid = _extended(s_family.grid) if beta_grid is None else np.asarray(beta_grid, dtype=float)

    def test(al: float, be: float) -> Verdict:
        sa = s_family.member(al)
        sb = s_family.member(be)
        sigma_log = getattr(sa, "sigma_log", None)
        if sigma_log is None:
            sigma_log = np.diff(sa.values(n))
        js = np.arange(1, n + 1, dtype=float)
        d = sigma_log[:n] - sb.values(n)[1:] / js
        return trend_bounded(d, js)

    return _exists_beta(s_family.grid, beta_grid, test, "root-quotient-S", s_family.name, s_family.name)


def cond_invmg(mat: WeightMatrix, n: int, beta_grid=None) -> Verdict:
    """(mu^(a)_j)^2 <= A mu^(b)_{2j}: inverse moderate growth across members."""
    beta_grid = _extended(mat.grid) if beta_grid is None else np.asarray(beta_grid, dtype=float)

    def test(al: float, be: float) -> Verdict:
        la = mat.member(al).log_mu(n)
        lb2 = mat.member(be).log_mu(2 * n)[2 * np.arange(1, n + 1) - 1]
        js = np.arange(1, n + 1, dtype=float)
        return trend_bounded(2.0 * la - lb2, js)

    return _exists_beta(mat.grid, beta_grid, test, "inverse-moderate-growth", mat.name, mat.name)


def cond_kappa_doubling(mat: WeightMatrix, t_grid=None, h_grid=None, beta_grid=None) -> Verdict:
    """2 kappa_b(t) <= kappa_a(H t) + H for some H: value-doubling of the
    averaged associated functions across members (the family analogue of the
    growth-doubling condition)."""
    t_grid = log_t_grid(2.0, 1e6, 40) if t_grid is None else np.asarray(t_grid, dtype=float)
    h_grid = 2.0 ** np.arange(0, 13) if h_grid is None else np.asarray(h_grid, dtype=float)
    beta_grid = _extended(mat.grid) if beta_grid is None else np.asarray(beta_grid, dtype=float)

    def kap(alpha: float, ts: np.ndarray) -> np.ndarray:
        w = _tilde(mat.member(alpha))
        _require_envelope(w, "kappa-doubling")
        return np.asarray(kappa_assoc(w, ts))

    def test(al: float, be: float) -> Verdict:
        lhs = 2.0 * kap(be, t_grid)
        for H in h_grid:
            rhs = kap(al, H * t_grid) + H
            if np.all(lhs <= rhs + 1e-9):
                return Verdict(Status.HOLDS, witness=float(H))
        return Verdict(Status.INCONCLUSIVE, note="no dyadic H <= 2^12 works on the grid")

    return _exists_beta(mat.grid, beta_grid, test, "kappa-doubling", mat.name, mat.name)


def lambda_membership(a_log, weight, n: int, sigma_grid=None) -> Verdict:
    """Coefficient-space membership: |a_k| <= C sigma^k M_k for some sigma
    (and some member, for a family): trend test on log|a_k| - k log sigma - log M_k."""
    sigma_grid = SIGMA_GRID if sigma_grid is None else np.asarray(sigma_grid, dtype=float)
    a_log = np.asarray(a_log, dtype=float)
    if len(a_log) < n + 1:
        raise ValueError("coefficient sequence shorter than the requested truncation")
    members = weight.members() if isinstance(weight, WeightMatrix) else [weight]
    ks = np.arange(1, n + 1, dtype=float)
    fail_certified = True
    for m in members:
        vals = m.values(n)
        for sg in sigma_grid:
            d = a_log[1 : n + 1] - ks * math.log(sg) - vals[1:]
            v = trend_bounded(d, ks)
            if v.holds:
                return Verdict(Status.HOLDS, relation="membership", lhs="coefficients", rhs=m.name,
                               witness={"sigma": float(sg), "member": m.name},
                               trajectory=v.trajectory, note=f"bounded with sigma={sg:g}")
        # certification only needs the most generous sigma
        d = a_log[1 : n + 1] - ks * math.log(sigma_grid[-1]) - vals[1:]
        if not trend_bounded(d, ks).fails:
            fail_certified = False
    name = weight.name if hasattr(weight, "name") else "weight"
    if fail_certified:
        return Verdict(Status.FAILS, relation="membership", lhs="coefficients", rhs=name,
                       note="growth certified even at the largest geometric factor")
    return Verdict(Status.INCONCLUSIVE, relation="membership", lhs="coefficients", rhs=name,
                   note="no geometric factor passes, growth not certified")
