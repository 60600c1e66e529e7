"""Independent verification of beamforming solutions.

Works on any object exposing per-link beamforming vectors `w[k][j]`; nothing
here trusts the producing optimizer.  The aggregate SINR of user k is

    sum_j |h_{k,j}^H w_{k,j}|^2  /  (sum_j sum_{i != k} |h_{k,j}^H w_{i,j}|^2 + sigma_k^2),

i.e. own-signal powers add across transmitters (non-coherent combining) and
every other user's beam contributes interference.  A matrix-form recomputation
through tr(h h^H w w^H) cross-checks the vector arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .power import (HardwareProfile, check_power_constraints, circuit_power,
                    dynamic_power, mw_to_dbm)
from .scenario import ChannelSet

# A transmitter serves a user when it carries more than this share of the
# user's total emitted power (interior-point solutions are never exactly zero).
SERVING_SHARE = 1e-6


def link_powers(beams) -> np.ndarray:
    """(K, T) emitted power ||w_{k,j}||^2 per link, mW."""
    return np.array([[float(np.real(np.vdot(w, w))) for w in row] for row in beams])


def serving_sets(p: np.ndarray) -> list:
    """Transmitters serving each user: those above SERVING_SHARE of its power."""
    serving = []
    for row in p:
        total = row.sum()
        serving.append(tuple(int(j) for j in np.nonzero(row > SERVING_SHARE * total)[0])
                       if total > 0 else ())
    return serving


@dataclass
class EvaluationReport:
    sinr: np.ndarray                # per user, dimensionless
    rate: np.ndarray                # log2(1 + sinr), bits/s/Hz
    qos_margin: np.ndarray          # rate - gamma
    power_slacks: list              # ConstraintSlack per (transmitter, antenna)
    p_dynamic_mw: float
    p_static_mw: float
    p_total_mw: float
    p_total_dbm: float
    serving: list                   # tuple of transmitter indices per user
    multiflow: np.ndarray           # bool per user
    crosscheck_residual: float      # max relative vector-vs-matrix SINR deviation


def evaluate(solution, channels: ChannelSet, hw: HardwareProfile,
             gamma) -> EvaluationReport:
    beams = getattr(solution, "w", solution)
    K, T = channels.num_users, channels.num_transmitters
    if len(beams) != K:
        raise InvalidInputError("need one beamformer list per user")
    if len(gamma) != K:
        raise InvalidInputError("need one QoS target per user")
    for k in range(K):
        if len(beams[k]) != T:
            raise InvalidInputError(f"user {k}: expected {T} beamformers")
        for j in range(T):
            if len(beams[k][j]) != channels.antennas(j):
                raise InvalidInputError(f"beamformer ({k}, {j}) has the wrong length")

    # gains[k, i, j] = |h_{k,j}^H w_{i,j}|^2 (receiving user, beam owner,
    # transmitter), and the same through tr(h h^H w w^H) as a cross-check.
    gains = np.zeros((K, K, T))
    gains_mat = np.zeros((K, K, T))
    for j, H in enumerate(channels.H):
        U = np.array([row[j] for row in beams], dtype=complex).reshape(K, H.shape[0]).T
        amp = H.conj().T @ U
        gains[:, :, j] = amp.real ** 2 + amp.imag ** 2
        Ws = U.T[:, :, None] * U.T.conj()[:, None, :]          # (K, n, n): w_i w_i^H
        gains_mat[:, :, j] = np.einsum("ak,iak->ki", H.conj(), Ws @ H).real

    crosscheck = float(np.max(np.abs(gains - gains_mat) / (1.0 + np.abs(gains)), initial=0.0))
    own = gains[np.arange(K), np.arange(K), :].sum(axis=1)
    total_rx = gains.sum(axis=1).sum(axis=1)
    interference = total_rx - own
    sinr = own / (interference + np.asarray(channels.sigma2))
    rate = np.log2(1.0 + sinr)

    serving = serving_sets(link_powers(beams))
    multiflow = np.array([len(s) > 1 for s in serving])

    p_dyn = dynamic_power(beams, hw)
    p_stat = circuit_power(hw, channels.antenna_counts)
    total = p_dyn + p_stat
    return EvaluationReport(
        sinr=sinr, rate=rate, qos_margin=rate - np.asarray(gamma, dtype=float),
        power_slacks=check_power_constraints(beams, hw),
        p_dynamic_mw=p_dyn, p_static_mw=p_stat, p_total_mw=total,
        p_total_dbm=mw_to_dbm(total) if total > 0 else float("-inf"),
        serving=serving, multiflow=multiflow, crosscheck_residual=crosscheck)
