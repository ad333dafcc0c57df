"""The names that bench/spans.py wraps must stay bound in the package.

`bench/run.py --trace 1` rebinds each listed function and method; one that a
change renamed or deleted would make the traced benchmark raise.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_bound_in_the_package():
    spans = _spans()
    for mod, attr, _span, _opts in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod), attr, None)), f"{mod}.{attr}"
    for mod, cls, meth, _span, _opts in spans.METHODS:
        assert callable(vars(getattr(importlib.import_module(mod), cls)).get(meth)), f"{mod}.{cls}.{meth}"
    assert callable(importlib.import_module("ultraweights.relations")._exists_beta)
