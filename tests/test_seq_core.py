import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraweights.errors import DivergentTail, NotAWeightSequence, TruncationExhausted
from ultraweights.seq_core import (
    WeightSeq,
    has_moderate_growth,
    is_log_convex,
    is_non_quasianalytic,
    is_strongly_log_convex,
    log_convex_minorant,
    mu,
    power_shift,
    seq_equivalent,
    seq_from_csv,
    seq_preceq,
    seq_to_csv,
    seq_to_json,
    tail_mids,
    tail_recip_mu,
)
from ultraweights.catalog import make_gevrey, resolve
from ultraweights.verdicts import Interval

PI2_6 = math.pi**2 / 6


# -- mu ----------------------------------------------------------------------


def test_mu_gevrey2_quotient(gevrey2):
    # direct factorial ratio: (3!)^2/(2!)^2 = 9
    assert mu(gevrey2, 3) == pytest.approx(9.0)


def test_mu_factorial(factorial):
    assert mu(factorial, 1) == pytest.approx(1.0)
    assert mu(factorial, 5) == pytest.approx(5.0)


# -- log-convexity ------------------------------------------------------------


def test_log_convex_gevrey2(gevrey2):
    assert is_log_convex(gevrey2, 64).holds


def test_log_convex_violation_witness():
    seq = WeightSeq.from_values("toy", [0.0, 2.0, 2.5])
    v = is_log_convex(seq, 2)
    assert v.fails and v.witness == 2


def test_log_convex_factorial(factorial):
    assert is_log_convex(factorial, 128).holds


def test_strongly_log_convex(gevrey2, factorial):
    assert is_strongly_log_convex(gevrey2, 64).holds
    # mu_k/k = 1 is constant, hence non-decreasing
    assert is_strongly_log_convex(factorial, 64).holds


def test_strongly_log_convex_scan_family():
    # log M_k = k log log(k+3): mu_k/k falls early on, the scan finds it
    seq = WeightSeq.from_values("loglog", [k * math.log(math.log(k + 3)) for k in range(0, 65)])
    v = is_strongly_log_convex(seq, 64)
    assert v.fails


# -- tails ---------------------------------------------------------------------


def test_tail_gevrey2_trigamma(gevrey2):
    iv = tail_recip_mu(gevrey2, 1)
    assert iv.lo <= PI2_6 <= iv.hi
    assert iv.mid == pytest.approx(PI2_6, rel=1e-10)
    assert tail_recip_mu(gevrey2, 2).mid == pytest.approx(PI2_6 - 1.0, rel=1e-10)


def test_gevrey_tail_brackets_hurwitz_zeta(gevrey15, gevrey3):
    from scipy.special import zeta

    for seq, s in ((gevrey15, 1.5), (gevrey3, 3.0)):
        for k in (9000, 16385, 131073):
            iv = tail_recip_mu(seq, k)
            assert iv.lo <= zeta(s, k) <= iv.hi
        lo, _, hi = tail_mids(seq, 4096)
        log_zeta = np.log(zeta(s, np.arange(1, 4097, dtype=float)))
        assert np.all((lo <= log_zeta) & (log_zeta <= hi))


def test_gammaln_matches_math_lgamma():
    from ultraweights.catalog import gammaln

    xs = np.concatenate([np.linspace(0.01, 40.0, 4000), np.geomspace(40.0, 1e70, 2000)])
    ref = np.array([math.lgamma(x) for x in xs])
    assert np.all(np.abs(gammaln(xs) - ref) <= 2e-15 * np.maximum(1.0, np.abs(ref)))


def test_tail_harmonic_diverges(factorial):
    assert tail_recip_mu(factorial, 1).hi == math.inf


def test_tail_generic_bracket_vs_exact(gevrey2):
    # strip the analytic tail and check the integral-test bracket contains it
    bare = WeightSeq("bare", gevrey2._eval, is_weight_seq=True)
    iv = tail_recip_mu(bare, 1)
    assert iv.lo <= PI2_6 <= iv.hi
    assert iv.width < 1e-3


def test_non_quasianalytic(gevrey2, factorial):
    assert is_non_quasianalytic(gevrey2).holds
    assert is_non_quasianalytic(factorial).fails


def test_non_quasianalytic_matrix_member(power_half):
    from ultraweights.func_core import matrix_from_omega

    m1 = matrix_from_omega(power_half).member(1.0)
    assert is_non_quasianalytic(m1).holds


# -- moderate growth -------------------------------------------------------------


def test_moderate_growth_gevrey2(gevrey2):
    v = has_moderate_growth(gevrey2, 128)
    assert v.holds
    # the binomial bound makes the exponent approach log 4
    assert "1.3" in v.note or "1.4" in v.note


def test_moderate_growth_quadratic_exponent_fails(qgevrey2):
    assert has_moderate_growth(qgevrey2, 64).fails


def test_moderate_growth_factorial(factorial):
    assert has_moderate_growth(factorial, 64).holds


# -- order and equivalence --------------------------------------------------------


def test_preceq_examples(gevrey2, factorial):
    assert seq_preceq(factorial, gevrey2, 256).holds
    assert seq_preceq(gevrey2, factorial, 256).fails
    assert seq_preceq(gevrey2, gevrey2, 256).holds


def test_equivalent_geometric_factor(factorial):
    twok = WeightSeq("2^k k!", lambda kk: factorial._eval(kk) + kk * math.log(2.0), is_weight_seq=True)
    assert seq_equivalent(factorial, twok, 256).holds


def test_equivalent_asymmetric(gevrey2, factorial):
    assert seq_equivalent(factorial, gevrey2, 256).fails
    assert seq_equivalent(gevrey2, gevrey2, 256).holds


def test_preceq_transitive_spot(gevrey15, gevrey2, gevrey3):
    n = 256
    assert seq_preceq(gevrey15, gevrey2, n).holds
    assert seq_preceq(gevrey2, gevrey3, n).holds
    assert seq_preceq(gevrey15, gevrey3, n).holds


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(0.05, 2.5), min_size=24, max_size=48))
def test_preceq_reflexive_on_random_weight_seqs(incs):
    vals = np.concatenate([[0.0], np.cumsum(np.sort(incs))])
    seq = WeightSeq.from_values("rand", vals, is_weight_seq=True)
    assert seq_preceq(seq, seq, len(vals) - 1).holds


# -- power shift --------------------------------------------------------------------


def test_power_shift_identity(factorial):
    assert power_shift(factorial, 1) is factorial


def test_power_shift_value(factorial):
    ps = power_shift(factorial, 2)
    assert ps.log_m(2) == pytest.approx(math.log(24.0) / 2.0)


def test_power_shift_dominates_base(gevrey2):
    ps = power_shift(gevrey2, 3)
    ks = np.arange(0, 65, dtype=float)
    assert np.all(gevrey2.log_m(ks) <= ps.log_m(ks) + 1e-9)


def test_power_shift_preceq_back_under_moderate_growth(gevrey2):
    assert seq_preceq(power_shift(gevrey2, 2), gevrey2, 200).holds


def test_power_shift_quotient_bound(gevrey2):
    # mu_{2j} <= A mu^[4]_j with a bounded constant
    ps = power_shift(gevrey2, 4)
    js = np.arange(1, 65)
    mus2j = np.array([mu(gevrey2, 2 * j) for j in js])
    mups = np.array([mu(ps, j) for j in js])
    ratio = mus2j / mups
    assert np.max(ratio) < 64.0
    assert np.max(ratio[32:]) <= np.max(ratio[:32]) + 1e-9


def test_power_shift_tail_bracket(gevrey2):
    ps = power_shift(gevrey2, 2)
    # exact: sum_j 1/mu^[2]_j with mu^[2]_j = ((2j-1)(2j))  ... geometric mean of squares
    js = np.arange(1, 4000)
    exact = float(np.sum([1.0 / math.sqrt(((2 * j - 1) * (2 * j)) ** 2) for j in range(1, 20000)]))
    iv = tail_recip_mu(ps, 1)
    assert iv.lo <= exact <= iv.hi


def test_power_shift_requires_weight_seq():
    pos = WeightSeq.from_values("wiggle", [0.0, 2.0, 2.5, 5.0])
    with pytest.raises(NotAWeightSequence):
        power_shift(pos, 2)


# -- minorant --------------------------------------------------------------------------


def test_minorant_chord():
    seq = WeightSeq.from_values("toy", [0.0, 2.0, 2.5])
    assert log_convex_minorant(seq, 2).log_m(1) == pytest.approx(1.25)


def test_minorant_fixed_point_on_convex(gevrey2):
    m = log_convex_minorant(gevrey2, 64)
    assert np.allclose(m.values(64), gevrey2.values(64), atol=1e-9)


def test_minorant_idempotent(rng):
    vals = np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 2.0, 96))])
    vals[10] += 3.0  # non-convex bump
    seq = WeightSeq.from_values("bumpy", vals)
    m1 = log_convex_minorant(seq, 64)
    m2 = log_convex_minorant(m1, 64)
    assert np.allclose(m1.values(64), m2.values(64), atol=1e-9)


def test_minorant_extremality(rng):
    n = 96
    vals = np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 2.0, n))])
    vals[5] += 2.0
    seq = WeightSeq.from_values("bumpy", vals)
    hull = log_convex_minorant(seq, n).values(n)
    for _ in range(20):
        # random convex minorant: sorted increments, shifted below the data
        incs = np.sort(rng.uniform(-1.0, 2.0, n))
        conv = np.concatenate([[0.0], np.cumsum(incs)])
        conv -= np.max(conv - vals)
        assert np.all(conv <= hull + 1e-9)


def test_minorant_of_evaluator_backed_uses_buffer(gevrey2):
    m = log_convex_minorant(gevrey2, 32)
    assert m.max_index == 32
    with pytest.raises(TruncationExhausted):
        m.log_m(33)


# -- normalization / serialization ------------------------------------------------------


def test_renormalized_restores_quotient():
    seq = WeightSeq.from_values("drop", [0.0, -1.0, -1.5, -1.0, 1.0])
    fixed = seq.renormalized()
    assert fixed.log_m(1) >= -1e-12
    assert "geometric" in fixed.note


def test_csv_roundtrip(gevrey2):
    text = seq_to_csv(gevrey2, 16)
    assert text.splitlines()[0] == "k,log_m,mu"
    assert "\r" not in text
    back = seq_from_csv("g2back", text, is_weight_seq=True)
    assert np.allclose(back.values(16), gevrey2.values(16), atol=1e-12)


def test_csv_declared_weight_sequence_must_be_log_convex(tmp_path):
    from ultraweights.catalog import resolve
    from ultraweights.func_core import omega_from_seq

    log_mu = [0.5, 4.0, 1.0, 5.0, 2.0, 6.0, 3.0, 7.0]  # zig-zag quotients
    vals = np.concatenate([[0.0], np.cumsum(log_mu)])
    path = tmp_path / "zigzag.csv"
    path.write_text("k,log_m\n" + "".join(f"{k},{float(v)!r}\n" for k, v in enumerate(vals)))
    with pytest.raises(NotAWeightSequence, match="drops at k=3"):
        resolve(f"seq:csv?path={path}&weight=1")
    plain = resolve(f"seq:csv?path={path}&weight=0")
    assert not plain.is_weight_seq
    brute = max(k * 5.0 - v for k, v in enumerate(vals))
    assert omega_from_seq(plain).omega(math.exp(5.0)) == pytest.approx(brute)


def test_json_shape(gevrey2):
    d = seq_to_json(gevrey2, 8)
    assert d["name"].startswith("gevrey") and d["n"] == 8
    assert len(d["log_m"]) == 9 and d["tail_kind"] == "analytic"
    bare = WeightSeq("bare", gevrey2._eval, is_weight_seq=True)
    assert seq_to_json(bare, 4)["tail_kind"] == "integral-test"
    arr = WeightSeq.from_values("arr", [0.0, 1.0])
    assert seq_to_json(arr, 1)["tail_kind"] == "none"


@pytest.mark.parametrize("make", [lambda: resolve("mat:omega?fn=power&beta=0.5").member(0.125),
                                  lambda: make_gevrey(2)], ids=["power-member", "gevrey2"])
def test_values_extend_the_prefix(make):
    # grown as the associated-function array grows, the prefix evaluates each
    # index once (0 in the constructor's check) and equals one fresh
    # evaluation bit for bit
    ev = make()._eval
    evaluated = []

    def counted(kk):
        evaluated.append(kk)
        return ev(kk)

    seq = WeightSeq("counted", counted, is_weight_seq=True)
    for n in (4096, 16384, 131072):
        vals = seq.values(n)
    assert sum(len(kk) for kk in evaluated) == 131073
    assert np.array_equal(np.concatenate(evaluated), np.arange(131073))
    assert np.array_equal(vals, make().values(131072))


def test_weight_seq_rejects_nonzero_start():
    with pytest.raises(ValueError):
        WeightSeq("bad", lambda kk: kk + 1.0)


def test_tail_interval_type(gevrey2):
    assert isinstance(tail_recip_mu(gevrey2, 3), Interval)


def test_divergent_tail_surfaces_in_derived(factorial):
    from ultraweights.derived import seq_L

    with pytest.raises(DivergentTail):
        seq_L(factorial, 32)


def test_tail_mids_raises_on_divergent_tail(factorial):
    bare = WeightSeq("bare", factorial._eval, is_weight_seq=True)
    for seq in (factorial, bare):  # analytic tail, then the integral-test bracket
        with pytest.raises(DivergentTail):
            tail_mids(seq, 8)


def test_divergent_tail_makes_shifted_liminf_inconclusive(factorial):
    from ultraweights.relations import cond_Mmg

    assert cond_Mmg(factorial, 32).inconclusive
