from dataclasses import replace

import numpy as np
import pytest

from lightstore.configfile import default_config


@pytest.fixture(scope="session")
def loaded():
    return default_config()


@pytest.fixture(scope="session")
def config(loaded):
    return loaded.config


@pytest.fixture(scope="session")
def sequence(loaded):
    return loaded.sequence


@pytest.fixture()
def noiseless(loaded):
    return replace(loaded, config=replace(loaded.config, trace_noise_sigma=0.0))


@pytest.fixture()
def nan_covariance(monkeypatch):
    """nan_covariance(call) makes the call-th np.linalg.inv (from 0) return NaN.

    In a beat-fit stack that inverse is one row's J^T J, whose covariance
    and standard errors then come out NaN.
    """
    def inject(call):
        inv, calls = np.linalg.inv, []

        def nan_on_call(a):
            calls.append(a)
            out = inv(a)
            return np.full_like(out, np.nan) if len(calls) == call + 1 else out

        monkeypatch.setattr(np.linalg, "inv", nan_on_call)

    return inject
