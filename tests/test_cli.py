import json

import numpy as np

from ultraweights.cli import main


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


def test_verify_chain_on_squared_log_completes(capsys):
    # the conjugate of phi(y) = y^2 peaks at y = x/2: member 8 at k = 64 needs
    # y = 256, and the normalized kappa matrix goes further
    rc, out, _ = run(capsys, "verify-chain", "mat:omega?fn=logsq", "--n", "64")
    assert rc != 2
    links = {lk["name"]: lk["verdict"]["status"] for lk in json.loads(out)["links"]}
    assert len(links) == 9
    # K_into_Q is left unpinned: it Fails while the Q radial grid stops at r = 1e12
    assert all(status == "Holds" for name, status in links.items() if name != "K_into_Q")
