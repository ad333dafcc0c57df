import json

import pytest

from ultraweights import catalog
from ultraweights.cli import main
from ultraweights.func_core import WeightFn, WeightMatrix
from ultraweights.seq_core import WeightSeq

# one URI query per registry key
SAMPLES = {
    "seq:gevrey": "s=2",
    "seq:factorial": "",
    "seq:qgevrey": "q=2",
    "seq:expgevrey": "a=1",
    "fn:power": "beta=0.5",
    "fn:logsq": "",
    "fn:linear": "",
    "mat:omega": "fn=logsq",
    "mat:gevrey": "s=2",
    "mat:qgevrey": "q=1.5",
    "mat:expgevrey": "p=2",
}
KINDS = {"sequence": WeightSeq, "function": WeightFn, "matrix": WeightMatrix}


def test_every_listed_key_resolves_to_its_kind():
    rows = catalog.entries()
    assert [e.key for e in rows] == list(SAMPLES)
    for e in rows:
        obj = catalog.resolve(f"{e.key}?{SAMPLES[e.key]}", grid=[1.0])
        assert isinstance(obj, KINDS[e.kind]), e.key


def test_csv_sequences_stay_unlisted(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("k,log_m\n0,0.0\n1,1.0\n2,3.0\n")
    assert isinstance(catalog.resolve(f"seq:csv?path={path}"), WeightSeq)
    assert all(not e.key.startswith("seq:csv") for e in catalog.entries())


def test_omega_matrix_defaults_and_function_kinds():
    assert catalog.resolve("mat:omega").source_fn.name == "power(beta=0.5)"
    assert catalog.resolve("mat:omega?beta=0.25").source_fn.name == "power(beta=0.25)"
    for e in catalog.entries():
        if e.kind == "function":
            via_matrix = catalog.resolve(f"mat:omega?fn={e.key[3:]}").source_fn
            assert via_matrix.name == catalog.resolve(f"{e.key}?beta=0.5").name


@pytest.mark.parametrize(
    "uri, message",
    [
        ("mat:omega?fn=nope", "unknown function kind 'nope'"),
        ("seq:nope", "unknown catalog entry 'seq:nope'"),
        ("fn:power", "'fn:power': missing parameter 'beta'"),
        ("seq:gevrey?s=abc", "'seq:gevrey?s=abc': could not convert string to float: 'abc'"),
    ],
)
def test_bad_uris_exit_two(capsys, uri, message):
    assert main(["compute", uri]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "CatalogError", "message": message}
