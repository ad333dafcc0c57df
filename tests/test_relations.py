import math

import numpy as np
import pytest

from ultraweights.catalog import resolve
from ultraweights.verdicts import Status, Verdict
from ultraweights.relations import (
    cond_liminf,
    implication,
    lambda_membership,
    matrix_braces_preceq,
    matrix_r_equivalent,
    prec_SV,
    prec_gamma1,
    r_moderate_growth,
)


def test_shifted_liminf_pairs_beta_four_alpha_on_exp_gevrey():
    # (mu^(b)_k / k) sum_{j>=2k} 1/mu^(a)_j ~ e^{(b - 2a) k} / k stays away
    # from 0 exactly when b > 2a; the first dyadic grid point is b = 4a
    mat = resolve("mat:expgevrey?p=2")
    v = cond_liminf(mat, 1024, shift=2)
    assert v.holds
    assert [p["beta"] for p in v.pairing] == [4 * a for a in mat.grid]


def test_moderate_growth_of_the_exp_gevrey_family():
    assert r_moderate_growth(resolve("mat:expgevrey?p=2"), 512).holds


def test_gamma1_implies_SV_between_gevrey_sequences():
    # the extension order implies the Borel order
    mp, m = resolve("seq:gevrey?s=3"), resolve("seq:gevrey?s=2")
    v = implication("gamma1=>SV", prec_gamma1(mp, m, 1024), prec_SV(mp, m, 1024))
    assert not v.fails


def test_braces_preceq_is_reflexive():
    mat = resolve("mat:gevrey?s=2")
    assert matrix_braces_preceq(mat, mat, 128).holds


def test_r_equivalent_is_reflexive():
    mat = resolve("mat:gevrey?s=2")
    assert matrix_r_equivalent(mat, mat, 128).holds


def _log_factorial(n: int) -> np.ndarray:
    return np.array([math.lgamma(k + 1) for k in range(n + 1)])


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_membership_in_the_gevrey2_class(n):
    # |a_k| <= C sigma^k (k!)^2 iff (log|a_k| - 2 log k!)/k is bounded above;
    # for (k!)^3 and (k!)^2.5 it grows like log k
    gevrey2 = resolve("seq:gevrey?s=2")
    lf, ks = _log_factorial(n), np.arange(n + 1, dtype=float)
    for a_log in (3 * lf, 2.5 * lf):
        assert lambda_membership(a_log, gevrey2, n).fails
    inside = (2 * lf, 2 * lf + ks * math.log(3.0), 2 * lf + 5 * np.log(np.maximum(ks, 1.0)), 1.5 * lf)
    for a_log in inside:
        assert lambda_membership(a_log, gevrey2, n).holds
    v = lambda_membership(2 * lf + ks * math.log(3.0), gevrey2, n)
    assert v.witness["sigma"] == pytest.approx(3.0)


def test_membership_with_zero_coefficients():
    gevrey2 = resolve("seq:gevrey?s=2")
    a_log = 2 * _log_factorial(64)
    a_log[1::2] = -np.inf  # a_k = 0 at odd k
    assert lambda_membership(a_log, gevrey2, 64).holds
    assert lambda_membership(np.full(65, -np.inf), gevrey2, 64).holds


H, F, I = Status.HOLDS, Status.FAILS, Status.INCONCLUSIVE


@pytest.mark.parametrize(
    "antecedent, consequent, expected, note",
    [
        (F, F, H, "vacuously true (antecedent fails)"),
        (I, F, I, "skipped: antecedent inconclusive"),
        (H, H, H, ""),
        (H, I, I, "skipped: consequent inconclusive"),
        (H, F, F, "antecedent holds but consequent fails"),
    ],
)
def test_implication_outcomes(antecedent, consequent, expected, note):
    v = implication("a=>c", Verdict(antecedent), Verdict(consequent))
    assert (v.status, v.note, v.relation) == (expected, note, "a=>c")
    assert v.witness == {"antecedent": antecedent.value, "consequent": consequent.value}


def test_implication_combines_several_verdicts_per_side():
    # each side is a conjunction: one Fails antecedent makes it vacuous
    assert implication("x", [Verdict(H), Verdict(F)], Verdict(F)).holds
    assert implication("x", iter([Verdict(H), Verdict(H)]), [Verdict(H), Verdict(F)]).fails
    assert implication("x", [Verdict(H), Verdict(I)], Verdict(F)).inconclusive
