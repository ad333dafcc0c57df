from ultraweights.catalog import resolve
from ultraweights.relations import (
    cond_liminf2,
    gamma1_implies_SV_check,
    matrix_braces_preceq,
    r_moderate_growth,
)


def test_shifted_liminf_pairs_beta_four_alpha_on_exp_gevrey():
    # (mu^(b)_k / k) sum_{j>=2k} 1/mu^(a)_j ~ e^{(b - 2a) k} / k stays away
    # from 0 exactly when b > 2a; the first dyadic grid point is b = 4a
    mat = resolve("mat:expgevrey?p=2")
    v = cond_liminf2(mat, 1024)
    assert v.holds
    assert [p["beta"] for p in v.pairing] == [4 * a for a in mat.grid]


def test_moderate_growth_of_the_exp_gevrey_family():
    assert r_moderate_growth(resolve("mat:expgevrey?p=2"), 512).holds


def test_gamma1_implies_SV_between_gevrey_sequences():
    v = gamma1_implies_SV_check(resolve("seq:gevrey?s=3"), resolve("seq:gevrey?s=2"), 1024)
    assert not v.fails


def test_braces_preceq_is_reflexive():
    mat = resolve("mat:gevrey?s=2")
    assert matrix_braces_preceq(mat, mat, 128).holds
