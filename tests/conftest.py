import math

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
from ultraweights.seq_core import WeightSeq


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
