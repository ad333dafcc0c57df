import json
import math
from pathlib import Path

import numpy as np
import pytest

from ultraweights.catalog import (
    gammaln,
    make_factorial,
    make_gevrey,
    make_linear_weight,
    make_log_square_weight,
    make_power_weight,
    make_q_gevrey,
)
from ultraweights.catalog import resolve
from ultraweights.func_core import omega_tilde_from_seq
from ultraweights.seq_core import WeightSeq

ORACLE = Path(__file__).resolve().parent / "data" / "oracle.json"


@pytest.fixture(scope="session")
def gevrey2():
    return make_gevrey(2)


@pytest.fixture(scope="session")
def gevrey15():
    return make_gevrey(1.5)


@pytest.fixture(scope="session")
def gevrey3():
    return make_gevrey(3)


@pytest.fixture(scope="session")
def small_gevrey2():
    # log M_k = k log 1e-4 + 2 log k!: quotients 1e-4 k^2, so mu_1 < 1 and omega_M > 0 below t = 1
    return WeightSeq("small-gevrey2", lambda kk: kk * math.log(1e-4) + 2.0 * gammaln(kk + 1.0), is_weight_seq=True)


@pytest.fixture(scope="session")
def factorial():
    return make_factorial()


@pytest.fixture(scope="session")
def qgevrey2():
    return make_q_gevrey(2)


@pytest.fixture(scope="session")
def power_half():
    return make_power_weight(0.5)


@pytest.fixture(scope="session")
def logsq():
    return make_log_square_weight()


@pytest.fixture(scope="session")
def linear():
    return make_linear_weight()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def oracle() -> dict:
    """30-digit values of kappa, P and log K from their definitions, written
    by tests/make_oracle.py: {"kappa" | "poisson" | "K": {uri: [(t, r or j,
    value)]}}.  Each value's own error bound is checked to lie far below the
    tolerances that the tests hold the package to (1e-14 relative at the
    tightest); a log K_j of 0 is exact."""
    doc = json.loads(ORACLE.read_text())
    out: dict = {"kappa": {}, "poisson": {}, "K": {}}
    for kind, at in (("kappa", "t"), ("poisson", "r"), ("K", "j")):
        for case in doc[kind]:
            value = float(case["value"])
            assert case["err"] <= 1e-17 * abs(value), case
            out[kind].setdefault(case["fn"], []).append((case[at], value))
    return out


@pytest.fixture(scope="session")
def oracle_fn():
    """The function that an oracle URI names: a catalog function, or the
    tilde representative omega~ of a catalog sequence; one per URI."""
    made: dict = {}

    def make(uri: str):
        if uri not in made:
            obj = resolve(uri)
            made[uri] = omega_tilde_from_seq(obj) if uri.startswith("seq:") else obj
        return made[uri]

    return make
