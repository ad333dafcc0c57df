"""The benchmark's files, read from the test suite.

The names that bench/spans.py wraps must stay bound in the package:
`bench/run.py --trace 1` rebinds each listed function and method; one that a
change renamed or deleted would make the traced benchmark raise.  The pair
counters wrap `relations._exists_beta` positionally, so its signature and its
calls of `test(alpha, beta)` must stay as they are, and a traced `check`
must reach the wrapped function of its relation.  Every `compute`
operation of bench/workloads.py must pass the benchmark's correctness gate
against bench/reference.json.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up while the class is built
    spec.loader.exec_module(module)
    return module


WORKLOADS = _bench("workloads")
COMPUTE_OPS = [op for ops in WORKLOADS.WORKLOADS.values() for op in ops if op.command == "compute"]


def test_traced_names_are_bound_in_the_package():
    spans = _bench("spans")
    for mod, attr, _span, _opts in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod), attr, None)), f"{mod}.{attr}"
    for mod, cls, meth, _span, _opts in spans.METHODS:
        assert callable(vars(getattr(importlib.import_module(mod), cls)).get(meth)), f"{mod}.{cls}.{meth}"
    assert callable(importlib.import_module("ultraweights.relations")._exists_beta)


@pytest.mark.parametrize(
    "lhs, rhs, tested, held",
    [
        # expgevrey members outgrow every Gevrey member: 2 alphas x 4 betas, none holds
        ("mat:expgevrey?p=2", "mat:gevrey?s=2", 8, 0),
        # each Gevrey member is dominated by the first expgevrey member tried
        ("mat:gevrey?s=2", "mat:expgevrey?p=2", 2, 2),
    ],
)
def test_pair_counters_under_the_traced_benchmark(capsys, lhs, rhs, tested, held):
    from ultraweights.cli import main

    spans = _bench("spans")
    tracer = spans.Tracer()
    with spans.installed(tracer):
        rc = main(["check", "braces-preceq", "--lhs", lhs, "--rhs", rhs, "--n", "64", "--grid", "0..1"])
    assert rc == (0 if held else 1)
    assert json.loads(capsys.readouterr().out)["status"] == ("Holds" if held else "Fails")
    assert tracer.counts["relations.pairs_tested"] == tested
    assert tracer.counts["relations.pairs_held"] == held


@pytest.mark.parametrize("argv, span", [
    (("check", "sv", "--lhs", "seq:gevrey?s=3", "--rhs", "seq:gevrey?s=2"), "relations.prec_SV"),
    (("check", "mg", "--lhs", "seq:gevrey?s=2"), "seq_core.has_moderate_growth"),
    (("check", "rmg", "--lhs", "mat:expgevrey?p=2"), "relations.r_moderate_growth"),
    (("check", "liminf2", "--lhs", "mat:expgevrey?p=2"), "relations.cond_liminf"),
], ids=lambda x: x[1] if isinstance(x, tuple) else None)
def test_traced_check_reaches_the_span_of_its_relation(capsys, argv, span):
    from ultraweights.cli import main

    spans = _bench("spans")
    tracer = spans.Tracer()
    with spans.installed(tracer):
        main([*argv, "--n", "64"])
    capsys.readouterr()
    assert tracer.spans[span][0] == 1


@pytest.mark.parametrize("op", COMPUTE_OPS, ids=lambda op: op.name)
def test_compute_tables_pass_the_benchmark_gate(capsys, op):
    from ultraweights.cli import main

    reference = json.loads((BENCH / "reference.json").read_text())
    rc = main(list(op.argv))
    out, err = capsys.readouterr()
    assert WORKLOADS.judge(op, rc, out, err, reference) == "pass"
    if op.name == "K-power":  # the conjugate-built path reproduces its table to rounding
        assert np.allclose(WORKLOADS.table_values(out), reference[op.name], rtol=1e-10, atol=1e-10)
