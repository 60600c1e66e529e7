"""Independent verification of beamforming solutions.

Works on the beamformer stacks `w[j]` of shape (antennas(j), K), whose
column k is w_{k,j}, or on any object exposing them as `w`; nothing here
trusts the producing optimizer.  The aggregate SINR of user k is

    sum_j |h_{k,j}^H w_{k,j}|^2  /  (sum_j sum_{i != k} |h_{k,j}^H w_{i,j}|^2 + sigma_k^2),

i.e. own-signal powers add across transmitters (non-coherent combining) and
every other user's beam contributes interference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .power import (HardwareProfile, check_power_constraints, circuit_power,
                    dynamic_power, mw_to_dbm)
from .scenario import ChannelSet

# Link (k, j) serves user k when its own signal |h_{k,j}^H w_{k,j}|^2 is more
# than this share of the user's received own signal sum_j |h_{k,j}^H w_{k,j}|^2.
# Interior-point solutions are never exactly zero; coordination._finish zeroes
# every link below the share, so a solution's powered links are its serving links.
SERVING_SHARE = 1e-6


def link_powers(w: list) -> np.ndarray:
    """(K, T) emitted power ||w_{k,j}||^2 per link, mW: the column sums of |w[j]|^2."""
    return np.array([(np.abs(w_j) ** 2).sum(axis=0) for w_j in w]).T


def link_gains(H: list, w: list) -> np.ndarray:
    """(K, K, T) gains g[k, i, j] = |h_{k,j}^H w_{i,j}|^2 of receiving user k
    from the beam of user i at transmitter j: one product H_j^H w_j per stack."""
    amp = [H_j.conj().T @ w_j for H_j, w_j in zip(H, w)]
    return np.stack([a.real ** 2 + a.imag ** 2 for a in amp], axis=2)


def serving_links(own: np.ndarray) -> np.ndarray:
    """(K, T) mask of the links whose own signal own[k, j] serves user k."""
    return own > SERVING_SHARE * own.sum(axis=1, keepdims=True)


def serving_sets(links: np.ndarray) -> list:
    """Transmitters serving each user: the nonzero entries of its row."""
    return [tuple(j for j, on in enumerate(row) if on) for row in links.tolist()]


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


def evaluate(solution, channels: ChannelSet, hw: HardwareProfile,
             gamma) -> EvaluationReport:
    w = getattr(solution, "w", solution)
    K, T = channels.num_users, channels.num_transmitters
    if len(w) != T:
        raise InvalidInputError(f"need {T} beamformer stacks, one per transmitter")
    if len(gamma) != K:
        raise InvalidInputError("need one QoS target per user")
    for j, w_j in enumerate(w):
        if np.shape(w_j) != (channels.antennas(j), K):
            raise InvalidInputError(f"beamformer stack {j} has shape {np.shape(w_j)}, "
                                    f"expected {(channels.antennas(j), K)}")

    # gains[k, i, j] = |h_{k,j}^H w_{i,j}|^2 (receiving user, beam owner, transmitter)
    gains = link_gains(channels.H, w)
    own_links = gains[np.arange(K), np.arange(K), :]
    own = own_links.sum(axis=1)
    total_rx = gains.sum(axis=1).sum(axis=1)
    interference = total_rx - own
    sinr = own / (interference + np.asarray(channels.sigma2))
    rate = np.log2(1.0 + sinr)

    serving = serving_sets(serving_links(own_links))
    multiflow = np.array([len(s) > 1 for s in serving])

    p_dyn = dynamic_power(w, hw)
    p_stat = circuit_power(hw, channels.antenna_counts)
    total = p_dyn + p_stat
    return EvaluationReport(
        sinr=sinr, rate=rate, qos_margin=rate - np.asarray(gamma, dtype=float),
        power_slacks=check_power_constraints(w, hw),
        p_dynamic_mw=p_dyn, p_static_mw=p_stat, p_total_mw=total,
        p_total_dbm=mw_to_dbm(total) if total > 0 else float("-inf"),
        serving=serving, multiflow=multiflow)
