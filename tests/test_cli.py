import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ultraweights import catalog, func_core
from ultraweights.cli import RELATIONS, load_config, main

CHAIN5 = ["S_into_K", "K_into_Q", "Q_into_K", "K_into_uL", "uL_into_L"]
CHAIN9 = CHAIN5 + ["uL_into_K", "kappaMatrix_into_K", "K_into_kappaMatrix", "family_moderate_growth"]
GOLDEN = {
    "gevrey2": ("mat:gevrey?s=2", 256, CHAIN5),
    "power": ("mat:omega?fn=power&beta=0.5", 64, CHAIN9),
    "expgevrey": ("mat:expgevrey?p=2", 64, CHAIN5),
    "logsq": ("mat:omega?fn=logsq", 64, CHAIN9),
}


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_check_holds_exits_zero_and_is_byte_stable(capsys):
    argv = ("check", "liminf2", "--lhs", "mat:expgevrey?p=2", "--n", "1024")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    doc = json.loads(out)
    assert doc["status"] == "Holds"
    # the first dyadic beta past 2 alpha: a tail sum that underflows moves it
    assert [(p["alpha"], p["beta"]) for p in doc["pairing"]] == [(a, 4 * a) for a in doc["grid"]]
    assert run(capsys, *argv)[1] == out


def test_check_fails_exits_one(capsys):
    rc, out, _ = run(capsys, "check", "sv", "--lhs", "seq:gevrey?s=3", "--rhs", "seq:gevrey?s=2", "--n", "1024")
    assert rc == 1
    assert json.loads(out)["status"] == "Fails"


def test_unknown_entry_exits_two_with_json_error(capsys):
    rc, out, err = run(capsys, "compute", "seq:nosuch")
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "CatalogError"


def test_compute_S_on_csv_with_quotients_beyond_float_range(tmp_path, capsys):
    # log M_k = k^2/2: log mu_k passes 709 (the float range) at k ~ 710
    path = tmp_path / "square.csv"
    path.write_text("k,log_m\n" + "".join(f"{k},{k * k / 2.0!r}\n" for k in range(5001)))
    rc, out, _ = run(capsys, "compute", f"seq:csv?path={path}&weight=1", "--derive", "S", "--n", "64")
    assert rc == 0
    vals = np.array([float(row.split(",")[1]) for row in out.splitlines()[1:]])
    assert len(vals) == 65 and np.all(np.isfinite(vals))


@pytest.mark.parametrize("argv, rc", [
    (("compute", "seq:csv?path=two.csv&weight=1", "--derive", "omega_M", "--n", "1"), 0),
    (("compute", "seq:csv?path=two.csv&weight=1", "--derive", "L", "--n", "1"), 2),
    (("compute", "seq:csv?path=two.csv&weight=1", "--derive", "K", "--n", "1"), 2),
    (("check", "gamma1", "--lhs", "seq:gevrey?s=2", "--rhs", "seq:csv?path=two.csv&weight=1", "--n", "1"), 2),
], ids=["omega_M", "L", "K", "gamma1"])
def test_csv_with_one_quotient_has_an_open_tail(tmp_path, monkeypatch, capsys, argv, rc):
    # one quotient fits no power-law remainder: omega_M needs no tail, and
    # whatever needs a finite one is refused as divergent
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two.csv").write_text("k,log_m\n0,0\n1,1.5\n")
    got, out, err = run(capsys, *argv)
    assert got == rc
    if rc == 2:
        assert out == "" and json.loads(err)["error"] == "DivergentTail"
    else:
        assert out.splitlines()[0] == "t,omega" and err == ""


def test_check_inconclusive_exits_three(capsys):
    rc, out, _ = run(capsys, "check", "preceq", "--lhs", "seq:gevrey?s=2", "--rhs", "seq:gevrey?s=2", "--n", "8")
    assert rc == 3
    assert json.loads(out)["status"] == "Inconclusive"  # too few samples for the trend test


def _verify_chain(path, uri: str, n: int) -> tuple[int, dict]:
    rc = main(["verify-chain", uri, "--n", str(n), "--report", str(path)])
    report = json.loads(path.read_text())
    return rc, {lk["name"]: lk["verdict"]["status"] for lk in report["links"]}


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    """Link statuses of four catalog chains, each run once."""
    return {name: _verify_chain(tmp_path_factory.mktemp(name) / "report.json", uri, n)
            for name, (uri, n, _links) in GOLDEN.items()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_chain(chains, name):
    rc, links = chains[name]
    assert rc == 0
    assert links == {link: "Holds" for link in GOLDEN[name][2]}


def test_verify_chain_on_squared_log_completes(chains):
    # the conjugate of phi(y) = y^2 peaks at y = x/2: member 8 at k = 64 needs
    # y = 256, and the normalized kappa matrix goes further; the maximizer of
    # Q_64 of member 8 lies near log r = 508
    rc, links = chains["logsq"]
    assert rc == 0
    assert len(links) == 9 and links["K_into_Q"] == "Holds"
    assert all(status == "Holds" for status in links.values())


def test_verify_chain_runs_no_quadrature(chains, tmp_path):
    # every transform is a closed form, and the package has no quadrature
    # engine to fall back on; gevrey2 at n = 64 keeps K_into_Q and K_into_uL
    # Inconclusive at that n
    assert not any("quadrature" in name for name in vars(func_core))
    assert chains["gevrey2"][0] == 0 and chains["expgevrey"][0] == 0
    rc, links = _verify_chain(tmp_path / "report.json", "mat:gevrey?s=2", 64)
    assert rc in (0, 3) and "Fails" not in links.values()


@pytest.mark.parametrize("argv, calls, xs", [
    (("verify-chain", "mat:omega?fn=power&beta=0.5", "--n", "64"), 0, 0),
    (("verify-chain", "mat:omega?fn=logsq", "--n", "64"), 0, 0),
    (("verify-chain", "mat:gevrey?s=2", "--n", "256"), 0, 0),
    (("verify-chain", "mat:expgevrey?p=2", "--n", "64"), 0, 0),
    (("selftest",), 1, 24),
], ids=["power", "logsq", "gevrey2", "expgevrey", "selftest"])
def test_golden_section_work_budget(monkeypatch, capsys, argv, calls, xs):
    # golden section conjugates only what has no closed-form maximizer: not
    # in a mat:omega chain, whose kappa matrix takes the root of kappa' =
    # kappa - phi, and in selftest the involution check's outer conjugate
    # at 24 points.  Every block stops on its certificate: two probes and
    # one phi call per golden step make GOLDEN_ITERS + 2 calls at the cap
    asked, phi_calls = [], []
    golden_max, golden_block = func_core._golden_max, func_core._golden_block

    def counted_max(g, base, top, x, refuse, doubling=False):
        asked.append(len(x))
        return golden_max(g, base, top, x, refuse, doubling)

    def counted_block(g, *args):
        count = [0]

        def counted_g(y):
            count[0] += 1
            return g(y)

        out = golden_block(counted_g, *args)
        phi_calls.append(count[0])
        return out

    monkeypatch.setattr(func_core, "_golden_max", counted_max)
    monkeypatch.setattr(func_core, "_golden_block", counted_block)
    assert run(capsys, *argv)[0] == 0
    assert (len(asked), sum(asked)) == (calls, xs)
    assert len(phi_calls) == calls and max(phi_calls, default=0) < func_core.GOLDEN_ITERS + 2


def test_check_invmg(capsys):
    rc, out, _ = run(capsys, "check", "invmg", "--lhs", "mat:expgevrey?p=2")
    assert rc == 0 and json.loads(out)["status"] == "Holds"
    # constant Gevrey family: mu_j^2 / mu_2j = 1/4^s j^s grows
    rc, out, _ = run(capsys, "check", "invmg", "--lhs", "mat:gevrey?s=2")
    assert rc == 1 and json.loads(out)["status"] == "Fails"


def test_check_roquS_on_gevrey(capsys):
    rc, out, _ = run(capsys, "check", "roquS", "--lhs", "mat:gevrey?s=2")
    assert rc == 0 and json.loads(out)["status"] == "Holds"


def test_check_membership_from_csv(tmp_path, capsys):
    # a_k = (k!)^3 is not dominated by C sigma^k (k!)^2 for any sigma; a_k = 1 is
    path = tmp_path / "coeffs.csv"
    path.write_text("k,log_a,zero\n" + "".join(f"{k},{3 * math.lgamma(k + 1)!r},0.0\n" for k in range(257)))
    argv = ("check", "membership", "--lhs", str(path), "--rhs", "seq:gevrey?s=2", "--n", "256")
    rc, out, _ = run(capsys, *argv)
    assert rc == 1 and json.loads(out)["status"] == "Fails"
    rc, out, _ = run(capsys, *argv, "--column", "zero")
    assert rc == 0 and json.loads(out)["status"] == "Holds"


@pytest.mark.parametrize("text, column, message", [
    ("k,log_a\n0,0.0\n1,abc\n", "log_a", "line 3, column 'log_a': could not convert string to float: 'abc'"),
    ("k,log_a\n0,0.0\n1\n", "log_a", "line 3, column 'log_a': could not convert string to float: ''"),
    ("k,log_a\n0,0.0\n", "nope", "line 2 has no column 'nope'"),
], ids=["non-numeric", "short-row", "missing-column"])
def test_check_membership_refuses_a_bad_coefficient_csv(tmp_path, capsys, text, column, message):
    path = tmp_path / "coeffs.csv"
    path.write_text(text)
    rc, out, err = run(capsys, "check", "membership", "--lhs", str(path), "--column", column,
                       "--rhs", "seq:gevrey?s=2", "--n", "8")
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": "UsageError", "message": f"{path}: {message}"}


FOUR_ROWS = "k,log_m\n0,0.0\n1,0.5\n2,1.5\n3,3.0\n"
TABLE = "seq:csv?path=t4.csv&weight=1"


@pytest.mark.parametrize("argv", [
    ("compute", TABLE, "--derive", "L"),
    ("compute", TABLE, "--derive", "underlineL"),
    ("compute", TABLE, "--derive", "S"),
    ("check", "sv", "--lhs", TABLE, "--rhs", TABLE),
    ("check", "gamma1", "--lhs", TABLE, "--rhs", TABLE),
    ("check", "mmg", "--lhs", TABLE),
], ids=["L", "underlineL", "S", "sv", "gamma1", "mmg"])
def test_tails_past_the_last_row_of_a_table_are_refused(tmp_path, monkeypatch, capsys, argv):
    # a 4-row table read at n = 8: the tail sums stop at its last index
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t4.csv").write_text(FOUR_ROWS)
    rc, out, err = run(capsys, *argv, "--n", "8")
    assert (rc, out) == (2, "") and len(err.splitlines()) == 1
    error = json.loads(err)
    assert error["error"] == "TruncationExhausted" and error["message"].startswith("t4.csv: tail start ")


def test_omega_M_of_a_table_takes_n_t_points_past_its_last_row(tmp_path, monkeypatch, capsys):
    # n counts t points: the t range reads the quotients up to the table's last index
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t4.csv").write_text(FOUR_ROWS)
    rc, out, err = run(capsys, "compute", TABLE, "--derive", "omega_M", "--n", "8")
    rows = out.splitlines()
    assert (rc, err, rows[0]) == (0, "", "t,omega") and len(rows) == 9
    assert float(rows[1].split(",")[1]) == 0.0 and float(rows[-1].split(",")[0]) == pytest.approx(1e4)


@pytest.mark.parametrize("header, column", [("k,foo", "log_m"), ("j,log_m", "k")])
def test_csv_sequence_without_a_column_names_it(tmp_path, monkeypatch, capsys, header, column):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text(f"{header}\n0,0.0\n1,0.5\n")
    rc, out, err = run(capsys, "compute", "seq:csv?path=t.csv", "--n", "1")
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": "CatalogError", "message": f"'seq:csv?path=t.csv': CSV has no column {column!r}"}


def test_load_config_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment line\n\nn = 128  # trailing comment\n   \ngrid=-1..2\n#n=4\n")
    assert load_config(str(path)) == {"n": "128", "grid": "-1..2"}
    assert load_config(None) == {}


def _usage_error(capsys, *argv, kind="UsageError"):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == kind


@pytest.mark.parametrize("relation, lhs", [
    ("sv", "seq:gevrey?s=2"), ("preceq", "seq:gevrey?s=2"), ("equiv", "seq:gevrey?s=2"),
    ("gamma1", "seq:gevrey?s=2"), ("st", "fn:power?beta=0.5"), ("fn-preceq", "fn:power?beta=0.5"),
    ("braces-preceq", "mat:gevrey?s=2"), ("membership", "coeffs.csv"),
])
def test_check_without_rhs_is_a_usage_error(tmp_path, monkeypatch, capsys, relation, lhs):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "coeffs.csv").write_text("k,log_a\n" + "".join(f"{k},0.0\n" for k in range(65)))
    _usage_error(capsys, "check", relation, "--lhs", lhs, "--n", "64")


S2, S3, EXPGEVREY = "seq:gevrey?s=2", "seq:gevrey?s=3", "mat:expgevrey?p=2"
# relation, lhs, rhs, n, exit code, status: one end-to-end call of each relation
CHECKS = [
    ("preceq", S2, S3, 256, 0, "Holds"),
    ("equiv", S2, S2, 256, 0, "Holds"),
    ("sv", S3, S2, 256, 1, "Fails"),
    ("gamma1", S3, S2, 256, 1, "Fails"),
    ("st", "fn:power?beta=0.5", "fn:power?beta=0.5", None, 0, "Holds"),
    ("st", "fn:logsq", "fn:power?beta=0.5", None, 1, "Fails"),
    ("fn-preceq", "fn:power?beta=0.5", "fn:logsq", None, 0, "Holds"),  # (log t)^2 = O(t^0.5)
    ("fn-preceq", "fn:logsq", "fn:power?beta=0.5", None, 1, "Fails"),
    ("mg", S2, None, 256, 0, "Holds"),
    ("mmg", S2, None, 256, 0, "Holds"),
    ("braces-preceq", "mat:gevrey?s=2", "mat:gevrey?s=3", 64, 0, "Holds"),
    ("rmg", EXPGEVREY, None, 256, 0, "Holds"),
    ("liminf", EXPGEVREY, None, 256, 0, "Holds"),
    ("liminf2", EXPGEVREY, None, 256, 0, "Holds"),
    ("roquS", "mat:gevrey?s=2", None, 64, 0, "Holds"),
    ("invmg", EXPGEVREY, None, 64, 0, "Holds"),
    ("membership", "zeros.csv", S2, 256, 0, "Holds"),  # log a_k = 0 for k <= 256
]
# an operand of each URI kind of RELATIONS that is of another kind
WRONG_KIND = {"sequence": "mat:gevrey?s=2", "matrix": S2, "function": S2, "sequence or matrix": "fn:power?beta=0.5"}


def _check_argv(relation, lhs, rhs, n):
    return ("check", relation, "--lhs", lhs, *(("--rhs", rhs) if rhs else ()), *(("--n", str(n)) if n else ()))


@pytest.fixture
def zeros_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zeros.csv").write_text("k,log_a\n" + "".join(f"{k},0.0\n" for k in range(257)))


@pytest.mark.parametrize("relation, lhs, rhs, n, rc, status", CHECKS, ids=[f"{c[0]}-{c[5]}" for c in CHECKS])
def test_check_decides_every_relation_end_to_end(zeros_csv, capsys, relation, lhs, rhs, n, rc, status):
    got, out, err = run(capsys, *_check_argv(relation, lhs, rhs, n))
    assert (got, json.loads(out)["status"], err) == (rc, status, "")


@pytest.mark.parametrize("relation", list(RELATIONS))
def test_check_refuses_an_operand_of_the_wrong_kind(zeros_csv, capsys, relation):
    _, lhs, rhs, n, _, _ = next(row for row in CHECKS if row[0] == relation)
    lhs_kind, rhs_kind, _ = RELATIONS[relation]
    if lhs_kind == "csv":  # a CSV lhs is read as a file: the URI rhs gets the wrong kind
        kind, rhs = rhs_kind, WRONG_KIND[rhs_kind]
    else:
        kind, lhs = lhs_kind, WRONG_KIND[lhs_kind]
    rc, out, err = run(capsys, *_check_argv(relation, lhs, rhs, n))
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": "CatalogError", "message": f"{WRONG_KIND[kind]!r} is not a {kind}"}


@pytest.mark.parametrize("relation", [r for r, (_, rhs_kind, _) in RELATIONS.items() if rhs_kind is None])
def test_check_refuses_rhs_on_a_one_operand_relation(capsys, relation):
    rc, out, err = run(capsys, "check", relation, "--lhs", "seq:nosuch", "--rhs", S3, "--n", "64")
    assert (rc, out) == (2, "")  # refused before either operand resolves
    assert json.loads(err) == {"error": "UsageError", "message": f"check {relation} takes no --rhs"}


@pytest.mark.parametrize("relation", [r for r in RELATIONS if r != "membership"])
def test_check_refuses_column_on_a_relation_without_a_csv(capsys, relation):
    _, rhs_kind, _ = RELATIONS[relation]
    rhs = ("--rhs", "seq:nosuch") if rhs_kind else ()
    rc, out, err = run(capsys, "check", relation, "--lhs", "seq:nosuch", *rhs, "--n", "64", "--column", "log_a")
    assert (rc, out) == (2, "")  # refused before either operand resolves
    assert json.loads(err) == {"error": "UsageError", "message": f"check {relation} takes no --column"}


def test_check_refuses_the_lhs_before_the_rhs_resolves(tmp_path, capsys):
    _usage_error(capsys, "check", "membership", "--lhs", str(tmp_path / "missing.csv"), "--rhs", "seq:nosuch",
                 kind="FileNotFound")
    rc, _, err = run(capsys, "check", "sv", "--lhs", "mat:gevrey?s=2", "--rhs", "seq:nosuch")
    assert rc == 2 and json.loads(err)["message"] == "'mat:gevrey?s=2' is not a sequence"


def test_selftest_passes(capsys):
    rc, out, _ = run(capsys, "selftest")
    lines = out.splitlines()
    assert rc == 0 and lines[-1] == "selftest: ok"
    assert len(lines) == 8 and all(line.startswith("[PASS] ") for line in lines[:-1])


def test_check_roquS_needs_a_matrix(capsys):
    _usage_error(capsys, "check", "roquS", "--lhs", "seq:gevrey?s=2", kind="CatalogError")


@pytest.mark.parametrize("grid", ["1", "a..b", "0.5..1"])
def test_malformed_grid_is_a_usage_error(capsys, grid):
    _usage_error(capsys, "compute", "mat:gevrey?s=2", "--grid", grid)


@pytest.mark.parametrize("argv", [
    ("compute", "mat:gevrey?s=2"), ("verify-chain", "mat:gevrey?s=2"), ("check", "liminf", "--lhs", "mat:gevrey?s=2"),
])
def test_empty_grid_is_a_usage_error(capsys, argv):
    _usage_error(capsys, *argv, "--grid", "3..1", "--n", "32")


@pytest.mark.parametrize("grid", ["-1023..0", "-1100..-1100", "0..1024", "0..1100"])
def test_grid_exponents_past_the_float_range_are_a_usage_error(capsys, grid):
    # 2^e underflows to 0 below -1074 and overflows past 1023
    _usage_error(capsys, "compute", "mat:omega?fn=power&beta=0.5", "--n", "3", f"--grid={grid}")


def test_grid_exponents_at_the_float_range_are_accepted(capsys):
    rc, out, _ = run(capsys, "compute", "mat:omega?fn=power&beta=0.5", "--n", "3", "--grid", "-1022..-1022",
                     "--format", "json")
    assert rc == 0 and json.loads(out)["members"][0]["log_m"] == [0.0] * 4
    assert run(capsys, "compute", "seq:gevrey?s=2", "--n", "4", "--grid", "-1022..1023")[0] == 0


@pytest.mark.parametrize("fn", ["logsq", "power&beta=0.5"])
def test_grid_exponent_where_alpha_k_overflows_is_refused(capsys, fn):
    # alpha = 2^1023: alpha k overflows for k >= 2, a refusal and no RuntimeWarning
    rc, out, err = run(capsys, "compute", f"mat:omega?fn={fn}", "--n", "3", "--grid", "1023..1023")
    assert (rc, out) == (2, "") and len(err.splitlines()) == 1
    error = json.loads(err)
    assert error["error"] == "UnboundedConjugate" and "at alpha=8.98847e+307, k=2" in error["message"]


def test_grid_exponent_where_phi_overflows_on_the_lattice_is_computed(capsys):
    # e^(y/2) overflows past y = 1420, where the numeric engine's bracket
    # points reach; the closed-form maximizer evaluates phi at y = 2 log(2 alpha k)
    # only.  log M_3 = 4163.633640175040187 to 19 digits (mpmath)
    rc, out, err = run(capsys, "compute", "mat:omega?fn=power&beta=0.5", "--n", "3", "--grid", "1000..1000")
    assert (rc, err) == (0, "")
    assert json.loads(out)["members"][0]["log_m"] == [0.0, 1385.6806554810105, 2774.133899684261, 4163.6336401750405]


def test_grid_exponent_where_golden_probes_overflowed_phi_is_computed(capsys):
    # alpha = 2^1010: log M_k = 2k (log(2 alpha k) - 1) + 1/alpha, with no
    # RuntimeWarning (the suite raises them)
    rc, out, err = run(capsys, "compute", "mat:omega?fn=power&beta=0.5", "--n", "3", "--grid", "1010..1010")
    assert (rc, err) == (0, "")
    want = [2.0 * k * (1011 * math.log(2.0) + math.log(k) - 1.0) for k in (1, 2, 3)]
    assert json.loads(out)["members"][0]["log_m"] == pytest.approx([0.0] + want, rel=1e-15)


@pytest.mark.parametrize("fn", ["logsq", "power&beta=0.5"])
@pytest.mark.parametrize("e", [1020, 1022])
def test_grid_exponent_where_the_conjugate_overflows_is_refused(capsys, fn, e):
    # x y overflows at the maximizer of x = alpha = 2^e (k = 1)
    rc, out, err = run(capsys, "compute", f"mat:omega?fn={fn}", "--n", "3", "--grid", f"{e}..{e}")
    assert (rc, out) == (2, "") and len(err.splitlines()) == 1
    error = json.loads(err)
    assert error["error"] == "UnboundedConjugate"
    assert error["message"].endswith(f": no finite bracket for the conjugate at x={2.0**e:.6g}")


def test_grid_exponent_past_the_lattice_top_is_computed(capsys):
    # alpha = 2^70 puts the maximizer alpha k / 2 past y = 8 * 2^64, the top
    # of the numeric engine's brackets, which refused it; log M_k = alpha k^2 / 4
    rc, out, err = run(capsys, "compute", "mat:omega?fn=logsq", "--n", "3", "--grid", "70..70")
    assert (rc, err) == (0, "")
    assert json.loads(out)["members"][0]["log_m"] == [2.0**70 * k * k / 4.0 for k in range(4)]


@pytest.mark.parametrize("argv", [
    ("compute", "seq:gevrey?s=2", "--n", "4"), ("compute", "mat:gevrey?s=2", "--n", "4", "--format", "json"),
    ("check", "liminf", "--lhs", "mat:gevrey?s=2", "--n", "32"), ("verify-chain", "mat:gevrey?s=2", "--n", "32"),
])
def test_grid_with_a_negative_lo_may_follow_its_flag(capsys, argv):
    joined = run(capsys, *argv, "--grid=-3..-2")
    assert joined[0] != 2 and joined[1] and run(capsys, *argv, "--grid", "-3..-2") == joined


@pytest.mark.parametrize("argv", [
    ("compute", "seq:gevrey?s=2", "--derive", "L"), ("compute", "seq:gevrey?s=2", "--derive", "S"),
    ("verify-chain", "mat:gevrey?s=2"),
])
def test_n_below_one_is_a_usage_error(capsys, argv):
    _usage_error(capsys, *argv, "--n", "0")


def test_family_provenance_in_the_json_table(capsys):
    argv = ("compute", "mat:gevrey?s=1.5", "--n", "64", "--grid", "0..1", "--format", "json")
    rc, out, _ = run(capsys, *argv, "--derive", "S")
    provenance = json.loads(out)["provenance"]
    assert rc == 0
    assert provenance["tail_spread"] == pytest.approx({"1": 2.793854037008714e-10, "2": 2.793854037008714e-10}, rel=1e-6)
    assert provenance["sigma_rescale"] == pytest.approx({"1": 1.2009853336275151, "2": 1.2009853336275151}, rel=1e-12)
    rc, out, _ = run(capsys, *argv, "--derive", "K")
    provenance = json.loads(out)["provenance"]
    assert rc == 0 and "tail_spread" not in provenance and "sigma_rescale" not in provenance


def _log_csv(path, log_m) -> str:
    path.write_text("k,log_m\n" + "".join(f"{k},{log_m(k)!r}\n" for k in range(1025)))
    return f"seq:csv?path={path}&weight=1"


@pytest.mark.parametrize("relation", ["preceq", "equiv"])
def test_check_with_log_ratio_above_700_holds(tmp_path, capsys, relation):
    # log M_k = 800 k + 2 log k!: (log M_k - log N_k)/k = 800 for N = (k!)^2, bounded
    lhs = _log_csv(tmp_path / "m.csv", lambda k: 800.0 * k + 2.0 * math.lgamma(k + 1))
    rc, out, _ = run(capsys, "check", relation, "--lhs", lhs, "--rhs", "seq:gevrey?s=2", "--n", "1024")
    assert rc == 0 and json.loads(out)["status"] == "Holds"


def test_check_gamma1_with_functional_above_700_holds(tmp_path, capsys):
    # M_k = 1000^k (k!)^2: (mu_j / j) T_j tends to 1000 for T the tail of (k!)^2
    lhs = _log_csv(tmp_path / "m.csv", lambda k: k * math.log(1000.0) + 2.0 * math.lgamma(k + 1))
    rc, out, _ = run(capsys, "check", "gamma1", "--lhs", lhs, "--rhs", "seq:gevrey?s=2", "--n", "1024")
    assert rc == 0 and json.loads(out)["status"] == "Holds"


def test_check_membership_in_a_function_is_a_catalog_error(tmp_path, capsys):
    path = tmp_path / "coeffs.csv"
    path.write_text("k,log_a\n" + "".join(f"{k},0.0\n" for k in range(65)))
    _usage_error(capsys, "check", "membership", "--lhs", str(path), "--rhs", "fn:power?beta=0.5", "--n", "64",
                 kind="CatalogError")


def test_check_mg_with_one_term_is_inconclusive(capsys):
    rc, out, _ = run(capsys, "check", "mg", "--lhs", "seq:gevrey?s=2", "--n", "1")
    assert rc == 3 and "too few samples" in json.loads(out)["note"]


def test_compute_K_reaches_past_the_assoc_array(capsys):
    # at n = 65536 a golden conjugate's bracket points reach y = 24.7,
    # past log mu_J = 23.6 of the 2^17-term array; the closed form's roots
    # stay inside it and agree with that conjugate
    rc, out, _ = run(capsys, "compute", "seq:gevrey?s=2", "--derive", "K", "--n", "65536")
    vals = np.array([float(row.split(",")[1]) for row in out.splitlines()[1:]])
    assert rc == 0 and len(vals) == 65537
    assert np.all(np.diff(np.diff(vals)) >= -1e-9)  # log quotients non-decreasing up to rounding
    js = np.array([1, 2, 3, 64, 4097, 30000, 65535, 65536])
    want = func_core.phi_star(func_core.kappa_fn(func_core.omega_tilde_from_seq(catalog.resolve("seq:gevrey?s=2"))), js)
    assert np.all(np.abs(vals[js] - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_compute_on_a_header_only_csv_is_a_catalog_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e.csv").write_text("k,log_m\n")
    rc, out, err = run(capsys, "compute", "seq:csv?path=e.csv", "--n", "4")
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "CatalogError", "message": "'seq:csv?path=e.csv': CSV has no rows"}


def test_compute_L_of_the_minorant_of_an_undeclared_table(tmp_path, monkeypatch, capsys):
    # the minorant is log-convex by construction, so it is a declared weight
    # sequence even where its table is not one
    monkeypatch.chdir(tmp_path)
    log_mu = 2.0 + 2.0 * np.log(np.arange(1, 33, dtype=float))
    log_mu[[4, 5]] += [1.0, -1.0]  # mu_6 < mu_5
    log_m = np.concatenate([[0.0], np.cumsum(log_mu)])
    (tmp_path / "t.csv").write_text("k,log_m\n" + "".join(f"{k},{float(v)!r}\n" for k, v in enumerate(log_m)))
    _usage_error(capsys, "compute", "seq:csv?path=t.csv", "--derive", "L", "--n", "4", kind="NotAWeightSequence")
    rc, out, err = run(capsys, "compute", "derived:minorant(seq:csv?path=t.csv)", "--derive", "L", "--n", "4")
    rows = np.array([[float(x) for x in row.split(",")] for row in out.splitlines()[1:]])
    assert rc == 0 and err == "" and rows.shape == (5, 2) and np.all(np.isfinite(rows))


def test_compute_omega_M_table_starts_below_one_when_mu_1_is(capsys):
    # underline-L of gevrey 2 has mu_1 = 0.61: omega_M is positive on (mu_1, 1]
    rc, out, _ = run(capsys, "compute", "derived:underlineL(seq:gevrey?s=2)", "--derive", "omega_M", "--n", "8")
    t0, om0 = map(float, out.splitlines()[1].split(","))
    assert rc == 0 and t0 < 1.0 and abs(om0) <= 1e-12  # omega_M(mu_1) = 0
    # gevrey 2 has mu_1 = 1: the table still starts at t = 1
    rc, out, _ = run(capsys, "compute", "seq:gevrey?s=2", "--derive", "omega_M", "--n", "8")
    assert rc == 0 and out.splitlines()[1] == "1.0,0.0"


@pytest.mark.parametrize("bumps", [(), (5, 20, 63)], ids=["log-convex", "bumped"])
@pytest.mark.parametrize("entry", ["seq:csv?path=t.csv", "derived:minorant(seq:csv?path=t.csv)"])
def test_compute_omega_M_of_an_undeclared_table_is_that_of_its_minorant(tmp_path, monkeypatch, capsys, bumps, entry):
    # omega_M sees only the log-convex minorant: an undeclared table prints,
    # byte for byte, the table of a declared CSV of its minorant; quotients
    # of at least 2 keep the minorant's mu_1 above 1, so neither is rescaled
    monkeypatch.chdir(tmp_path)
    log_mu = 2.0 + np.log(np.arange(1, 65, dtype=float))
    for k in bumps:  # raise log M_k by 1: mu_k up, mu_(k+1) down
        log_mu[k - 1] += 1.0
        log_mu[k] -= 1.0
    log_m = np.concatenate([[0.0], np.cumsum(log_mu)])
    (tmp_path / "t.csv").write_text("k,log_m\n" + "".join(f"{k},{float(v)!r}\n" for k, v in enumerate(log_m)))
    rc, minorant, _ = run(capsys, "compute", "seq:csv?path=t.csv", "--derive", "minorant", "--n", "64")
    assert rc == 0
    (tmp_path / "m.csv").write_text(minorant)
    rc, want, _ = run(capsys, "compute", "seq:csv?path=m.csv&weight=1", "--derive", "omega_M", "--n", "64")
    assert rc == 0
    rc, out, err = run(capsys, "compute", entry, "--derive", "omega_M", "--n", "64")
    assert (rc, out, err) == (0, want, "")


@pytest.mark.parametrize("n", ["64", "1024"])
def test_compute_omega_M_of_L(capsys, n):
    # L is an undeclared table of n + 1 values: its omega_M is its minorant's
    rc, out, err = run(capsys, "compute", "derived:L(seq:gevrey?s=2)", "--derive", "omega_M", "--n", n)
    rows = np.array([[float(x) for x in row.split(",")] for row in out.splitlines()[1:]])
    assert rc == 0 and err == "" and rows.shape == (int(n), 2) and np.all(np.diff(rows[:, 1]) >= 0.0)


def test_check_resolves_a_shared_inner_uri_once(capsys, monkeypatch):
    resolved = []
    plain = catalog.resolve

    def counted(uri, grid=None):
        resolved.append(uri)
        return plain(uri, grid=grid)

    monkeypatch.setattr(catalog, "resolve", counted)
    argv = ("check", "braces-preceq", "--lhs", "derived:Q(mat:gevrey?s=3)", "--rhs", "derived:K(mat:gevrey?s=3)",
            "--n", "64")
    rc, out, _ = run(capsys, *argv)
    assert json.loads(out)["relation"] == "braces-preceq"
    assert resolved == ["mat:gevrey?s=3"]
    run(capsys, *argv)  # each call resolves afresh
    assert resolved == ["mat:gevrey?s=3"] * 2


@pytest.mark.parametrize("a", [8, 12])
def test_compute_omega_M_where_the_quotients_leave_float_range(capsys, a):
    # mu_64^2 = (64^2 e^(64 a))^2 passes the float range, and mu_64 does at a = 12: t ends at 1e308
    rc, out, _ = run(capsys, "compute", f"seq:expgevrey?p=2&a={a}", "--derive", "omega_M", "--n", "64")
    rows = np.array([[float(x) for x in row.split(",")] for row in out.splitlines()[1:]])
    assert rc == 0 and rows.shape == (64, 2) and np.all(np.isfinite(rows))


def test_cli_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(func_core.__file__))
    code = "import sys, ultraweights.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_verify_chain_imports_no_numpy_ma():
    # np.unique imports numpy.ma on first use, 14 ms in every forked command
    src = os.path.dirname(os.path.dirname(func_core.__file__))
    code = ("import contextlib, io, sys\nfrom ultraweights.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['verify-chain', 'mat:expgevrey?p=2', '--n', '64'])\n"
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def _table(out: str) -> tuple[list[str], list[list[str]]]:
    header, *rows = out.splitlines()
    return header.split(","), [row.split(",") for row in rows]


@pytest.mark.parametrize("derive, col, exact", [
    ("kappa", 1, lambda t: 2.0 * t**0.5),
    ("poisson", 1, lambda t: t**0.5 / math.cos(math.pi / 4)),
    ("none", 2, lambda t: 2.0 * t**0.5),
    ("none", 3, lambda t: t**0.5 / math.cos(math.pi / 4)),
], ids=["kappa", "poisson", "none-kappa", "none-poisson"])
def test_compute_on_a_function_entry(capsys, derive, col, exact):
    rc, out, err = run(capsys, "compute", "fn:power?beta=0.5", "--derive", derive, "--n", "8")
    assert (rc, err) == (0, "")
    header, rows = _table(out)
    assert header[:2] == ["t", "omega" if derive == "none" else derive] and len(rows) == 8
    for row in rows:
        t = float(row[0])
        assert float(row[col]) == pytest.approx(exact(t), rel=1e-8), (derive, t)


@pytest.mark.parametrize("entry", ["fn:power?beta=0.5", "fn:logsq"])
@pytest.mark.parametrize("derive", ["kappa", "poisson", "none"])
def test_compute_on_a_function_entry_matches_the_oracle(capsys, oracle, entry, derive):
    # every row against 30-digit values of the definitions, at the oracle's t
    rc, out, err = run(capsys, "compute", entry, "--derive", derive, "--n", "16")
    assert (rc, err) == (0, "")
    header, rows = _table(out)
    assert len(rows) == 16
    for kind in ("kappa", "poisson") if derive == "none" else (derive,):
        want = dict(oracle[kind][entry])
        for row in rows:
            t, got = float(row[0]), float(row[header.index(kind)])
            assert abs(got - want[t]) <= 1e-12 * abs(want[t]), (kind, t)


@pytest.mark.parametrize("derive", ["kappa", "poisson"])
def test_compute_a_transform_of_a_function_without_envelope_is_refused(capsys, derive):
    rc, out, err = run(capsys, "compute", "fn:linear", "--derive", derive, "--n", "8")
    assert (rc, out) == (2, "") and json.loads(err) == {
        "error": "EnvelopeRequired", "message": f"{derive} refused for linear: no growth envelope attached"}


def test_compute_none_on_a_function_without_envelope_leaves_the_transforms_empty(capsys):
    rc, out, _ = run(capsys, "compute", "fn:linear", "--derive", "none", "--n", "8")
    header, rows = _table(out)
    assert rc == 0 and header == ["t", "omega", "kappa", "poisson"] and len(rows) == 8
    assert all(float(row[1]) == pytest.approx(float(row[0]), rel=1e-12) and row[2:] == ["", ""] for row in rows)


@pytest.mark.parametrize("flag", [(), ("--json",)], ids=["text", "json"])
def test_catalog_lists_every_entry(capsys, flag):
    rc, out, err = run(capsys, "catalog", *flag)
    keys = [e.key for e in catalog.entries()]
    assert (rc, err) == (0, "")
    if flag:
        assert [row["key"] for row in json.loads(out)] == keys
    else:
        assert [line.split()[0] for line in out.splitlines()] == keys


def test_compute_out_writes_the_table_to_the_file(tmp_path, capsys):
    argv = ("compute", "seq:gevrey?s=2", "--derive", "K", "--n", "16")
    table = run(capsys, *argv)[1]
    path = tmp_path / "k.csv"
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_text(encoding="utf-8") == table


def test_compute_derived_sequence_as_json(capsys):
    rc, out, err = run(capsys, "compute", "seq:gevrey?s=2", "--derive", "L", "--format", "json", "--n", "16")
    doc = json.loads(out)
    assert (rc, err) == (0, "") and doc["name"] == "L(gevrey(s=2))" and len(doc["log_m"]) == 17
    assert doc["config"]["n"] == 16


def test_verify_chain_on_a_sequence_is_a_usage_error(capsys):
    _usage_error(capsys, "verify-chain", "seq:gevrey?s=2", "--n", "16")


@pytest.mark.parametrize("entry, message", [
    ("derived:L(seq:gevrey?s=2", "malformed derived URI"),
    ("derived:nope(seq:gevrey?s=2)", "unknown derived op 'nope'"),
    ("derived:L(fn:power?beta=0.5)", "derived:L expects a sequence or matrix"),
    ("derived:minorant(mat:gevrey?s=2)", "unknown family op 'minorant'"),
], ids=["malformed", "unknown-op", "function", "minorant-of-a-matrix"])
def test_derived_uri_refusals(capsys, entry, message):
    rc, out, err = run(capsys, "compute", entry, "--n", "16")
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"] == "CatalogError" and message in json.loads(err)["message"]


def test_module_entry_point_runs_under_the_warning_policy():
    # the __main__ guard, with RuntimeWarnings raised outside pytest's filter too
    src = os.path.dirname(os.path.dirname(func_core.__file__))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "ultraweights.cli", "catalog", "--json"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert [row["key"] for row in json.loads(done.stdout)] == [e.key for e in catalog.entries()]


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_output_into_a_closed_pipe_stops_quietly(buffered):
    # the reader has gone before the first write, which fails in print when
    # stdout is unbuffered and in the flush when it is buffered: no
    # traceback, no "Exception ignored" line from the flush at exit, and
    # the status of a broken pipe
    src = os.path.dirname(os.path.dirname(func_core.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {"PYTHONPATH": src}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "ultraweights.cli", "catalog", "--json"], stdout=write,
                              stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, "")
