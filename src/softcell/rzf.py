"""Low-complexity multiflow beamforming: fixed per-transmitter directions from a
regularized channel-Gram inverse, then a centralized linear power allocation.

Each transmitter j forms, independently and from local channel knowledge only,

    u_{k,j} = normalize( (sum_i h_{i,j} h_{i,j}^H / sigma_i^2 + K/(gt_k q_j) I)^{-1} h_{k,j} ),

with the regularizer depending on the target user's SINR requirement gt_k and
the per-antenna cap q_j: one Cholesky factor per transmitter and distinct
target, through allocation.regularized_solve, the direction rule the exact
solver shares.  Only the scalar couplings |h_{i,j}^H u_{k,j}|^2 and
|u_{k,j}[l]|^2 travel over the backhaul; the power split across transmitters
then solves the LP of :mod:`softcell.allocation` in the per-link powers
p_{k,j}, the same LP that gives the exact solver its powers.  A coupling whose
received power stays below allocation.GAIN_FLOOR of the noise is exchanged as
zero.
"""

from __future__ import annotations

import numpy as np

from .allocation import Directions, allocate_power, couplings, regularized_solve
from .coordination import BeamformingSolution, CoordinationProblem, _finish
from .exceptions import InvalidInputError
from .scenario import ChannelSet


def rzf_directions(channels: ChannelSet, hw, gtilde) -> Directions:
    K = channels.num_users
    gtilde = np.asarray(gtilde, dtype=float)
    scale = np.sqrt(np.asarray(channels.sigma2, dtype=float))
    U = []
    for j, H_j in enumerate(channels.H):
        q_j = hw.per_antenna_limit[j]
        if H_j.shape[0] and q_j <= 0:
            raise InvalidInputError(f"transmitter {j} has antennas but a zero power cap")
        with np.errstate(divide="ignore"):
            reg = K / (np.maximum(gtilde, 0.0) * q_j)     # inf: no direction
        X = regularized_solve(H_j / scale, 1.0, reg)
        norm = np.linalg.norm(X, axis=0)
        U.append(np.divide(X, norm, out=np.zeros_like(X), where=norm > 0))
    return couplings(channels, hw, U)


def rzf_solve(problem: CoordinationProblem) -> BeamformingSolution:
    """Full heuristic: directions, power LP, beamformers w = sqrt(p) u."""
    ch = problem.channels
    gt = problem.gtilde
    inter = rzf_directions(ch, problem.hw, gt)
    p = allocate_power(inter, problem.hw, gt, ch.sigma2)
    return _finish(inter.beams(p), problem, exchanged_scalars=dict(inter.exchanged))
