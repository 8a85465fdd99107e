import math
import os

# One BLAS thread: the small-matrix algebra gains nothing from more, and
# threads that spin next to another process on the machine slow every test
# several-fold.  Set before numpy is first imported: BLAS reads them as it loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from trajpmbm import gaussseq as gs
from trajpmbm.models import (
    BirthComponent,
    BirthModel,
    Rectangle,
    SensorModel,
    SurvivalModel,
    constant_velocity_model,
)


@pytest.fixture
def scalar_model():
    """1-D random walk with unit noises."""
    return gs.ModelLG(F=[[1.0]], Q=[[1.0]], H=[[1.0]], R=[[1.0]])


@pytest.fixture
def cv_model():
    return constant_velocity_model(sigma_v=1.0, sigma_r=1.0)


@pytest.fixture
def small_region():
    return Rectangle(-100.0, 100.0, -100.0, 100.0)


def random_spd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return scale * (A @ A.T + n * np.eye(n))


def run_pipeline(backend, model, window0, mean0, cov0, events, L=1):
    """Drive one sequence density through predict/update events.

    ``events`` is a list of None (predict only) or a measurement (predict
    then update).  Returns (final sequence, list of the log-likelihood of
    each measurement under the predicted sequence).
    """
    s = gs.make_seq(backend, window0, mean0, cov0, L=L)
    logliks = []
    for ev in events:
        s = gs.predict_seq(s, model)
        if ev is not None:
            _, lik = gs.gate_likelihoods(s, model, [ev])
            logliks.append(math.log(lik[0]))
            s = gs.update_seq(s, model, ev)
    return s, logliks
