import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ultraweights import catalog, func_core
from ultraweights.cli import load_config, main

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
    assert json.loads(out)["status"] == "Holds"
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


def test_check_inconclusive_exits_three(capsys):
    rc, out, _ = run(capsys, "check", "preceq", "--lhs", "seq:gevrey?s=2", "--rhs", "seq:gevrey?s=2", "--n", "8")
    assert rc == 3
    assert json.loads(out)["status"] == "Inconclusive"  # too few samples for the trend test


def _no_quadrature(*args, **kwargs):
    raise AssertionError("the quadrature engine ran")


def _verify_chain(path, uri: str, n: int) -> tuple[int, dict]:
    rc = main(["verify-chain", uri, "--n", str(n), "--report", str(path)])
    report = json.loads(path.read_text())
    return rc, {lk["name"]: lk["verdict"]["status"] for lk in report["links"]}


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    """Link statuses of four catalog chains, each run once with the
    quadrature engine replaced by a function that raises."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(func_core, "_quadrature", _no_quadrature)
        for name, (uri, n, _links) in GOLDEN.items():
            out[name] = _verify_chain(tmp_path_factory.mktemp(name) / "report.json", uri, n)
    return out


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


def test_verify_chain_runs_no_quadrature(chains, tmp_path, monkeypatch):
    # the chains fixture ran with the engine disabled; so does gevrey2 at
    # n = 64, whose K_into_Q and K_into_uL stay Inconclusive at that n
    assert chains["gevrey2"][0] == 0 and chains["expgevrey"][0] == 0
    monkeypatch.setattr(func_core, "_quadrature", _no_quadrature)
    rc, links = _verify_chain(tmp_path / "report.json", "mat:gevrey?s=2", 64)
    assert rc in (0, 3) and "Fails" not in links.values()


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
    # a_k = (k!)^3 is not dominated by C sigma^k (k!)^2 for any sigma
    path = tmp_path / "coeffs.csv"
    path.write_text("k,log_a\n" + "".join(f"{k},{3 * math.lgamma(k + 1)!r}\n" for k in range(257)))
    rc, out, _ = run(capsys, "check", "membership", "--lhs", str(path), "--rhs", "seq:gevrey?s=2", "--n", "256")
    assert rc == 1 and json.loads(out)["status"] == "Fails"


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
    ("gamma1", "seq:gevrey?s=2"), ("st", "fn:power?beta=0.5"), ("braces-preceq", "mat:gevrey?s=2"),
    ("membership", "coeffs.csv"),
])
def test_check_without_rhs_is_a_usage_error(tmp_path, monkeypatch, capsys, relation, lhs):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "coeffs.csv").write_text("k,log_a\n" + "".join(f"{k},0.0\n" for k in range(65)))
    _usage_error(capsys, "check", relation, "--lhs", lhs, "--n", "64")


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


def test_compute_K_reaches_past_the_assoc_array(capsys, monkeypatch):
    # the conjugate's bracket probes y = 32, past log mu_J = 23.6 of the 2^17-term array
    far_ys = []
    far = func_core._AssocEvaluator._far

    def spy(self, log_t):
        far_ys.extend(log_t.tolist())
        return far(self, log_t)

    monkeypatch.setattr(func_core._AssocEvaluator, "_far", spy)
    rc, out, _ = run(capsys, "compute", "seq:gevrey?s=2", "--derive", "K", "--n", "8192")
    vals = np.array([float(row.split(",")[1]) for row in out.splitlines()[1:]])
    assert rc == 0 and len(vals) == 8193
    assert np.all(np.diff(np.diff(vals)) >= -1e-9)  # log quotients non-decreasing up to rounding
    assert 32.0 in far_ys


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


def test_compute_K_on_the_power_matrix_matches_the_reference_table(capsys):
    # the conjugate-built path: every member is a scaled Young conjugate
    reference = json.loads((Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text())["K-power"]
    rc, out, _ = run(capsys, "compute", "mat:omega?fn=power&beta=0.5", "--derive", "K", "--n", "64", "--grid", "0..1")
    got = [v for member in json.loads(out)["members"] for v in member["log_m"]]
    assert rc == 0 and len(got) == len(reference)
    assert np.allclose(got, reference, rtol=1e-10, atol=1e-10)


def test_cli_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(func_core.__file__))
    code = "import sys, ultraweights.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
