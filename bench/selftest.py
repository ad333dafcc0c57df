"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the package's test run: they run
each workload traced (about two minutes in all).
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

FUNC_CORE_WORK = ("phi_star", "kappa_assoc", "kappa_interval", "poisson_batch", "omega_from_seq")


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def traced_run(workload: str, seed: int):
    done = bench(workload, seed, 1)
    assert done.returncode == 0, done.stderr
    env, detail, result = (json.loads(line) for line in done.stdout.strip().splitlines())
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return env, detail, result, metrics


@pytest.fixture(scope="module")
def seq_runs():
    return traced_run("chain-seq", 1), traced_run("chain-seq", 2)


@pytest.fixture(scope="module")
def tables_run():
    return traced_run("tables", 1)


@pytest.fixture(scope="module")
def omega_run():
    return traced_run("chain-omega", 1)


@pytest.fixture(scope="module")
def all_runs(seq_runs, tables_run, omega_run):
    return {"chain-seq": seq_runs[0], "tables": tables_run, "chain-omega": omega_run}


def test_traced_output_is_byte_identical_to_untraced(all_runs):
    for name, (_env, detail, result, _m) in all_runs.items():
        assert detail["outputs_identical"], name
        assert result["correct"], name


def test_known_defects_are_the_only_failures(all_runs):
    for name, (_env, detail, result, _m) in all_runs.items():
        expected = {op.name: "known-defect" if op.defect else "pass" for op in workloads.WORKLOADS[name]}
        for rec in detail["ops"]:
            assert rec["outcome"] == expected[rec["op"]], (name, rec)
        defects = sum(op.defect is not None for op in workloads.WORKLOADS[name])
        assert result["failed"] * len(expected) == result["attempted"] * defects


def test_environment_is_recorded(all_runs):
    env = all_runs["tables"][0]["environment"]
    for key in ("python", "numpy", "scipy", "kernel_backend", "blas", "blas_threads", "nproc", "commit"):
        assert key in env
    assert set(env["blas_threads"].values()) == {"1"}


def test_layers_record_calls_where_they_work(seq_runs, tables_run, omega_run):
    seq = seq_runs[0][3]
    for key in ("func_core.poisson_batch.calls", "func_core.kappa_assoc.calls", "derived.seq_Q.calls",
                "relations.matrix_braces_preceq.calls", "seq_core.values.calls", "verdicts.trend_bounded.calls",
                "catalog.resolve.calls"):
        assert seq[key] > 0, key

    tables = tables_run[3]
    for fn in FUNC_CORE_WORK:
        assert tables[f"func_core.{fn}.calls"] == 0, fn
    assert tables["func_core.omega.points"] == 0
    for kernel in ("min_chord", "sv_sup", "pair_gap_max"):
        assert tables[f"kernels.{kernel}.calls"] > 0, kernel
    assert tables["kernels.self_s"] > 0.5 * tables["trace.wall_s"]

    omega = omega_run[3]
    for fn in ("phi_star", "kappa_assoc", "poisson_batch"):
        assert omega[f"func_core.{fn}.calls"] > 0, fn
    assert omega["kernels.self_s"] < 0.01 * omega["trace.wall_s"]


def test_self_time_never_exceeds_parent_span(all_runs):
    for name, (_env, detail, _result, metrics) in all_runs.items():
        recorded = detail["spans"]
        for parent, child, self_s in detail["edges"]:
            assert self_s >= -1e-9, (name, child)
            if parent is not None:
                assert self_s <= recorded[parent][1], (name, parent, child)
        for span, (_calls, total_s, self_s) in recorded.items():
            assert -1e-9 <= self_s <= total_s + 1e-9, (name, span)
        assert sum(s[2] for s in recorded.values()) <= metrics["trace.wall_s"]


def test_counts_repeat_exactly(seq_runs):
    (_e1, d1, r1, m1), (_e2, d2, r2, m2) = seq_runs
    assert d1["order"] != d2["order"]  # the seeds shuffle the operations
    units = {k: v["unit"] for k, v in r1["metrics"].items()}
    for key, unit in units.items():
        if unit != "s":
            assert m1[key] == m2[key], key
    assert d1["counts"] == d2["counts"]
    assert d1["maxima"] == d2["maxima"]
    assert {k: v[0] for k, v in d1["spans"].items()} == {k: v[0] for k, v in d2["spans"].items()}


SMALL_OPS = [
    ["verify-chain", "mat:gevrey?s=2", "--n", "32"],
    ["check", "rmg", "--lhs", "mat:omega?fn=power&beta=0.5", "--n", "32"],
    ["check", "sv", "--lhs", "seq:gevrey?s=3", "--rhs", "seq:gevrey?s=2", "--n", "64"],
    ["check", "liminf", "--lhs", "mat:expgevrey?p=2", "--n", "64"],
    ["check", "mg", "--lhs", "seq:gevrey?s=1.5", "--n", "64"],
    ["check", "st", "--lhs", "fn:power?beta=0.5", "--rhs", "fn:logsq"],
    ["compute", "fn:power?beta=0.5", "--derive", "kappa", "--n", "4"],
    ["compute", "fn:power?beta=0.5", "--derive", "poisson", "--n", "4"],
    ["compute", "seq:gevrey?s=2", "--derive", "underlineL", "--n", "64"],
]


def test_wrappers_reach_every_call_site():
    """Each wrapped function is entered only through its wrapper: the span
    count equals the profiler's count of calls into the original code."""
    cli, _ = run.import_cli()
    originals = {span: getattr(sys.modules[mod], attr) for mod, attr, span, _ in spans.FUNCTIONS}
    originals |= {span: getattr(sys.modules[mod], cls).__dict__[meth] for mod, cls, meth, span, _ in spans.METHODS}
    tracer = spans.Tracer()
    prof = cProfile.Profile()
    with spans.installed(tracer):
        prof.enable()
        for argv in SMALL_OPS:
            rc, _out, err, _dt = run.call_cli(cli.main, argv)
            assert rc in (0, 1, 3), (argv, err)
        prof.disable()
    profiled = pstats.Stats(prof).stats
    for span, fn in originals.items():
        code = fn.__code__
        calls = profiled.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]
        assert tracer.spans[span][0] == calls, span
    # assoc_sup serves only sequences that are not log-convex, and
    # phi_star_maximizer only quotient probes beyond a member's array
    unreached = {span for span in originals if tracer.spans[span][0] == 0}
    assert unreached <= {"kernels.assoc_sup", "func_core.phi_star_maximizer"}, unreached


def test_tables_match_within_log_tolerance_only():
    ref = [0.0, 1.0, 1234.5, float("-inf")]
    assert workloads.table_matches([0.0, 1.0 + 1e-9, 1234.5 * (1 + 1e-9), float("-inf")], ref)
    assert not workloads.table_matches([0.0, 1.0 + 1e-3, 1234.5, float("-inf")], ref)
    assert not workloads.table_matches(ref[:3], ref)


def test_compare_refuses_different_backends(tmp_path):
    env = {"kernel_backend": "pure", "blas_threads": {"OPENBLAS_NUM_THREADS": "1"},
           "python": "3", "numpy": "2", "scipy": "1", "commit": None}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    for name, backend in (("a.log", "pure"), ("b.log", "compiled")):
        lines = [{"environment": env | {"kernel_backend": backend}}, {"workload": "tables", "trace": 0}, result]
        (tmp_path / name).write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    done = subprocess.run([sys.executable, str(HERE / "compare.py"), "--base", str(tmp_path / "a.log"),
                           "--head", str(tmp_path / "b.log")], capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "kernel_backend" in done.stderr


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("tables", 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
