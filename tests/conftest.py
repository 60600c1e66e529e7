"""Shared construction helpers for hand-built channel instances."""

import os

# One BLAS thread for the whole run, set before numpy loads, as the benchmark
# runs: the benchmark's own tests (perfbench/, collected after these) sample a
# calibration kernel from a SIGPROF timer, and with a multi-threaded OpenBLAS
# that timer kills the process ("Profiling timer expired", exit 155).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from softcell.power import HardwareProfile  # noqa: E402
from softcell.scenario import ChannelSet  # noqa: E402


def stacks(rows):
    """Per-transmitter (n_j, K) stacks whose column k is rows[k][j]."""
    return [np.array([row[j] for row in rows], dtype=complex).T for j in range(len(rows[0]))]


def make_channels(h_rows, sigma2):
    """ChannelSet from explicit per-(user, transmitter) channel vectors."""
    return ChannelSet(H=stacks(h_rows), sigma2=np.asarray(sigma2, dtype=float),
                      user_positions=np.zeros((len(h_rows), 2)))


def loose_hardware(num_transmitters, rho=2.0, cap=1e6, eta=0.0):
    """Profile with caps far from active and optional zero circuit power."""
    return HardwareProfile(rho=(rho,) * num_transmitters,
                           eta=(eta,) * num_transmitters,
                           per_antenna_limit=(cap,) * num_transmitters,
                           subcarriers=600)


@pytest.fixture
def single_user_unit_channel():
    """One user, one 2-antenna transmitter, ||h||^2 = 1, sigma^2 = 1 mW."""
    h = np.array([0.6, 0.8j])
    return make_channels([[h]], [1.0])
