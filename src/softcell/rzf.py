"""Low-complexity multiflow beamforming: fixed per-transmitter directions from a
regularized channel-Gram inverse, then a centralized linear power allocation.

Each transmitter j forms, independently and from local channel knowledge only,

    u_{k,j} = normalize( (sum_i h_{i,j} h_{i,j}^H / sigma_i^2 + K/(gt_k q_j) I)^{-1} h_{k,j} ),

with the regularizer depending on the target user's SINR requirement gt_k and
the per-antenna cap q_j.  Only the scalar couplings |h_{i,j}^H u_{k,j}|^2 and
|u_{k,j}[l]|^2 travel over the backhaul; the power split across transmitters
then solves the LP of :mod:`softcell.allocation` in the per-link powers
p_{k,j}, the same LP that gives the exact solver its powers.  A coupling whose
received power stays below allocation.GAIN_FLOOR of the noise is exchanged as
zero.
"""

from __future__ import annotations

import numpy as np

from .allocation import Directions, allocate_power, couplings
from .coordination import BeamformingSolution, CoordinationProblem, _finish
from .exceptions import InvalidInputError
from .scenario import ChannelSet


def rzf_directions(channels: ChannelSet, hw, gtilde) -> Directions:
    K, T = channels.num_users, channels.num_transmitters
    gtilde = np.asarray(gtilde, dtype=float)
    sigma2 = np.asarray(channels.sigma2, dtype=float)
    U = [np.zeros((channels.antennas(j), K), dtype=complex) for j in range(T)]
    for j, U_j in enumerate(U):
        n = U_j.shape[0]
        if n == 0:
            continue
        q_j = hw.per_antenna_limit[j]
        if q_j <= 0:
            raise InvalidInputError(f"transmitter {j} has antennas but a zero power cap")
        H = channels.stacked(j)
        gram = (H / sigma2) @ H.conj().T
        for k in range(K):
            if gtilde[k] <= 0:
                continue
            reg = K / (gtilde[k] * q_j)
            direction = np.linalg.solve(gram + reg * np.eye(n), H[:, k])
            norm = np.linalg.norm(direction)
            if norm > 0:
                U_j[:, k] = direction / norm
    return couplings(channels, hw, U)


def exchange_report_csv(solution: BeamformingSolution) -> str:
    """One-row CSV of backhaul-exchanged scalar counts, one column per SCA."""
    if not solution.exchanged_scalars:
        raise InvalidInputError("solution carries no exchanged-scalar counts")
    scas = sorted(j for j in solution.exchanged_scalars if j > 0)
    header = ",".join(f"exchanged_scalars_sca_{j}" for j in scas)
    row = ",".join(str(solution.exchanged_scalars[j]) for j in scas)
    return header + "\n" + row + "\n"


def rzf_solve(problem: CoordinationProblem) -> BeamformingSolution:
    """Full heuristic: directions, power LP, beamformers w = sqrt(p) u."""
    ch = problem.channels
    gt = problem.gtilde
    inter = rzf_directions(ch, problem.hw, gt)
    p = allocate_power(inter, problem.hw, gt, ch.sigma2)
    return _finish(inter.beams(p), problem, exchanged_scalars=dict(inter.exchanged))
