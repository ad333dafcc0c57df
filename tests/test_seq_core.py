import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraweights.errors import DivergentTail, NotAWeightSequence, TruncationExhausted
from ultraweights.seq_core import (
    LogRange,
    SeriesTail,
    WeightSeq,
    _tail_exponent,
    has_moderate_growth,
    is_log_convex,
    is_non_quasianalytic,
    is_strongly_log_convex,
    log_convex_minorant,
    log_tail_bracket,
    seq_equivalent,
    seq_from_csv,
    seq_preceq,
    seq_to_csv,
    seq_to_json,
    tail_mids,
    tail_recip_mu,
    tail_sums,
)
from ultraweights.catalog import make_exp_gevrey_member, make_gevrey, make_q_gevrey, resolve
from ultraweights.verdicts import Interval

PI2_6 = math.pi**2 / 6


# -- mu ----------------------------------------------------------------------


def test_mu_gevrey2_quotient(gevrey2):
    # direct factorial ratio: (3!)^2/(2!)^2 = 9; log_mu(n)[k - 1] is log mu_k
    assert math.exp(gevrey2.log_mu(3)[2]) == pytest.approx(9.0)


def test_mu_factorial(factorial):
    log_mu = factorial.log_mu(5)
    assert math.exp(log_mu[0]) == pytest.approx(1.0)
    assert math.exp(log_mu[4]) == pytest.approx(5.0)


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
        tail = tail_mids(seq, 4096)
        log_zeta = np.log(zeta(s, np.arange(1, 4097, dtype=float)))
        assert np.all((tail.lo <= log_zeta) & (log_zeta <= tail.hi))


def test_gammaln_matches_math_lgamma():
    from ultraweights.catalog import gammaln

    xs = np.concatenate([np.linspace(0.01, 40.0, 4000), np.geomspace(40.0, 1e70, 2000)])
    ref = np.array([math.lgamma(x) for x in xs])
    assert np.all(np.abs(gammaln(xs) - ref) <= 2e-15 * np.maximum(1.0, np.abs(ref)))


def test_tail_harmonic_diverges(factorial):
    assert tail_recip_mu(factorial, 1).hi == math.inf


def test_tail_exponent_of_one_quotient_is_open():
    # one quotient fits no power law, so the generic remainder stays open
    assert _tail_exponent(np.array([1.5])) is None


def test_tail_generic_bracket_vs_exact(gevrey2):
    # strip the analytic tail and check the integral-test bracket contains it
    bare = WeightSeq("bare", gevrey2._eval, is_weight_seq=True)
    iv = tail_recip_mu(bare, 1)
    assert iv.lo <= PI2_6 <= iv.hi
    assert iv.width < 1e-3


@pytest.mark.parametrize("make", [lambda: make_gevrey(3.0), lambda: make_q_gevrey(1.5),
                                  lambda: make_exp_gevrey_member(2.0, 0.3),
                                  lambda: WeightSeq("bare", make_gevrey(2.0)._eval, is_weight_seq=True)],
                         ids=["gevrey", "qgevrey", "expgevrey", "generic"])
def test_tail_bracket_of_a_range_matches_its_indices_in_any_order(make):
    # a contiguous range takes its upper end as a slice of the suffix sums,
    # any other index array as a copy: the same numbers either way
    seq = make()
    ks = np.arange(1, 4098)
    tail = log_tail_bracket(seq, ks, 4096)
    rev = log_tail_bracket(seq, ks[::-1].copy(), 4096)
    assert np.array_equal(tail.lo, rev.lo[::-1]) and np.array_equal(tail.hi, rev.hi[::-1])
    some = np.array([5, 3, 3, 4097, 1])
    picked = log_tail_bracket(seq, some, 4096)
    assert np.array_equal(picked.lo, tail.lo[some - 1]) and np.array_equal(picked.hi, tail.hi[some - 1])


def test_tail_bracket_of_a_long_range_allocates_little_beyond_its_two_ends(gevrey3):
    # at 2^17 + 1 indices (1 MiB per array): the terms become the upper end
    # in place and the widening works in small blocks, so an index copy, a
    # separate suffix array or a full-size temporary would each break the bound
    n = 2**17
    ks = np.arange(1, n + 2)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tail = log_tail_bracket(gevrey3, ks, n)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * (n + 1) + 2**17


def test_series_tail_bracket_keeps_its_rounding_allowance():
    # _widen allows 1e-13 in log for the rounding of the sums; at most 1e-14
    # of it may go to that rounding, checked against exact sums of the terms
    seq = resolve("seq:gevrey?s=2")
    n, tail = 2**17, seq.log_tail
    top = n + tail.span + 1
    terms = np.arange(1, top, dtype=float)
    tail.neg_log_term(terms)
    terms = np.exp(terms).tolist()
    rem = tail.log_rem(float(top))
    rems = [math.exp(rem.lo), math.exp(rem.hi)]
    ks = np.union1d(np.geomspace(1, n, 24).astype(np.int64), [20000, 65536])
    bracket = tail.sums(1, n).at(ks)
    for i, k in enumerate(ks):
        assert bracket.lo[i] <= math.log(math.fsum(terms[k - 1 :] + rems[:1])) - 9e-14, k
        assert bracket.hi[i] >= math.log(math.fsum(terms[k - 1 :] + rems[1:])) + 9e-14, k


def test_generic_tail_bracket_keeps_its_rounding_allowance():
    # a member of a canonical matrix has no attached tail: its bracket is the
    # generic one, the suffix sums of 1/mu_k to n, with the remainder past n
    # between 0 and the power-law bound.  It takes the same allowance
    seq = resolve("mat:omega?fn=power&beta=0.5").member(1.0)
    n = 2**17
    log_mu = seq.log_mu(n)
    terms = np.exp(-log_mu).tolist()
    rem = n / ((_tail_exponent(log_mu) - 1.0) * math.exp(log_mu[-1]))
    ks = np.array([1, 10, 100, 1000, 20000, 131000])
    tail = log_tail_bracket(seq, ks, n)
    for i, k in enumerate(ks):
        assert tail.lo[i] <= math.log(math.fsum(terms[k - 1 :])) - 9e-14, k
        assert tail.hi[i] >= math.log(math.fsum(terms[k - 1 :] + [rem])) + 9e-14, k


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


# -- minorant --------------------------------------------------------------------------


def test_from_values_extends_by_chords_and_keeps_the_values():
    seq = WeightSeq.from_values("toy", [0.0, 2.0, 2.5, math.inf])
    assert np.array_equal(seq.log_m(np.arange(4.0)), [0.0, 2.0, 2.5, math.inf])
    assert np.array_equal(seq.log_m(np.array([0.5, 1.25, 2.5])), [1.0, 2.125, math.inf])


def test_minorant_chord():
    seq = WeightSeq.from_values("toy", [0.0, 2.0, 2.5])
    assert log_convex_minorant(seq, 2).log_m(1) == pytest.approx(1.25)


def test_minorant_is_a_declared_weight_sequence():
    # log-convex by construction, whatever its input was declared
    seq = WeightSeq.from_values("toy", [0.0, 2.0, 2.5])
    assert not seq.is_weight_seq and log_convex_minorant(seq, 2).is_weight_seq


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


def test_values_is_a_read_only_view_of_the_prefix():
    seq = WeightSeq("g", lambda kk: kk * kk)
    early = seq.values(8)
    assert not early.flags.writeable
    with pytest.raises(ValueError):
        early[1] = 0.0
    kept = early.copy()
    later = seq.values(64)  # grows the prefix past the earlier view
    assert not later.flags.writeable
    assert np.array_equal(early, kept) and np.array_equal(later[:9], kept)
    assert np.shares_memory(seq.values(32), later)  # no copy when the prefix covers n


def test_renormalized_restores_quotient():
    seq = WeightSeq.from_values("drop", [0.0, -1.0, -1.5, -1.0, 1.0])
    fixed = seq.renormalized()
    assert fixed.log_m(1) >= -1e-12
    assert fixed.name == "drop*geom(1)"


def test_csv_roundtrip(gevrey2):
    text = seq_to_csv(gevrey2, 16)
    assert text.splitlines()[0] == "k,log_m,mu"
    assert "\r" not in text
    back = seq_from_csv("g2back", text, is_weight_seq=True)
    assert np.allclose(back.values(16), gevrey2.values(16), atol=1e-12)


def test_csv_without_rows_is_refused():
    with pytest.raises(ValueError, match="CSV has no rows"):
        seq_from_csv("empty", "k,log_m\n")


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
    # the generic bracket, then an attached series tail whose remainder is open
    harmonic = SeriesTail(lambda js: np.negative(np.log(js, out=js), out=js), 0, lambda top: LogRange(-math.inf, math.inf))
    attached = WeightSeq("attached", factorial._eval, log_tail=harmonic, is_weight_seq=True)
    for seq in (factorial, attached):
        with pytest.raises(DivergentTail):
            tail_mids(seq, 8)


def test_divergent_tail_makes_shifted_liminf_inconclusive(factorial):
    from ultraweights.relations import cond_Mmg

    assert cond_Mmg(factorial, 32).inconclusive


TAIL_SOURCES = {
    "gevrey2": lambda: resolve("seq:gevrey?s=2"),
    "qgevrey2": lambda: resolve("seq:qgevrey?q=2"),
    "qgevrey1.01": lambda: resolve("seq:qgevrey?q=1.01"),
    "expgevrey-1": lambda: resolve("mat:expgevrey?p=2").member(1.0),
    "power-1/8": lambda: resolve("mat:omega?fn=power&beta=0.5").member(0.125),
    "csv-table": lambda: seq_from_csv("table", seq_to_csv(make_gevrey(2.0), 300), is_weight_seq=True),
}


def _assert_ordered(bracket):
    # a comparison with NaN is False, so this also fails on a NaN end or mid
    assert isinstance(bracket, LogRange)
    assert np.all(bracket.lo <= bracket.mid) and np.all(bracket.mid <= bracket.hi)


@pytest.mark.parametrize("source", TAIL_SOURCES)
def test_every_tail_producer_returns_an_ordered_log_range(source):
    # the series tails of the catalog (an exact remainder for q-Gevrey, whose
    # midpoint at q = 1.01 and top = 1 rounds below it unless held to the
    # ends; an open lower end for exp-Gevrey), the generic sums of a
    # conjugate-built member and those of a complete table
    from ultraweights.func_core import omega_from_seq

    seq = TAIL_SOURCES[source]()
    for top in (1, 2, 40, 299):
        ks = np.arange(1, top + 1)
        sums = tail_sums(seq, 1, top, top)
        _assert_ordered(sums.rem)
        _assert_ordered(sums.at(ks))
        _assert_ordered(log_tail_bracket(seq, ks, top))
        _assert_ordered(tail_mids(seq, top))
    if seq.log_tail is not None:
        for top in (1.0, 2.0, 65.0, 300.0, 2.0**17, 1e12):
            _assert_ordered(seq.log_tail.log_rem(top))
    ev = omega_from_seq(seq).assoc
    _assert_ordered(ev.log_tail_after(np.arange(ev._n + 1)))
