"""Low-complexity multiflow beamforming: fixed per-transmitter directions from a
regularized channel-Gram inverse, then a centralized minimum-power allocation.

Each transmitter j forms, independently and from local channel knowledge only,

    u_{k,j} = normalize( (sum_i h_{i,j} h_{i,j}^H / sigma_i^2 + K/(gt_k q_j) I)^{-1} h_{k,j} ),

with the regularizer depending on the target user's SINR requirement gt_k and
the per-antenna cap q_j.  With G_j the (n_j, K) stack of h_{i,j} / sigma_i,
the push-through identity (G G^H + r I)^{-1} G = G (G^H G + r I)^{-1} turns the
n_j x n_j inverse into a K x K one: one batched solve over the transmitters
per distinct target, through coordination.regularized_inverse, the direction
rule the exact solver shares.  Only the scalar couplings |h_{i,j}^H u_{k,j}|^2
and |u_{k,j}[l]|^2 travel over the backhaul; the power split across transmitters
then solves a small LP in the per-link powers p_{k,j}.  A coupling is left out
(exchanged as zero) only when even the full power n_j q_j of transmitter j
along u_{k,j} would deliver less than GAIN_FLOOR of user i's noise power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conic_solver as cs
from .conic_problem import NONNEG, Block, ConicProblem
from .coordination import (BeamformingSolution, CoordinationProblem, _finish,
                           regularized_inverse, scaled_channels)
from .evaluation import link_gains
from .exceptions import InvalidInputError, NumericalFailureError, RzfInfeasibleError
from .scenario import ChannelSet

# A coupling g[i, k, j] whose worst-case received power g * n_j * q_j is below
# this share of sigma_i^2 is treated as exactly zero and never exchanged.  The
# floor is relative to the noise, not to the peak gain at the transmitter: the
# couplings left out then shift a delivered SINR by far less than the 1e-6
# relative miss that the verification allows, while a peak-relative floor can
# drop interference worth more than that at paper scale.
GAIN_FLOOR = 1e-10


@dataclass
class Directions:
    U: list                 # U[j][:, k], unit direction of user k at transmitter j, or zero
    g: np.ndarray           # (K, K, T): g[i, k, j] = |h_{i,j}^H u_{k,j}|^2
    exchanged: dict         # per-transmitter count of nonzero exchanged scalars

    def beams(self, p: np.ndarray) -> list:
        """Beamformer stacks w[j] = U[j] * sqrt(p[:, j]): column k is w_{k,j}."""
        return [U_j * np.sqrt(p[:, j]) for j, U_j in enumerate(self.U)]


def couplings(channels, hw, U: list) -> Directions:
    """The scalars the power LP reads for the directions U[j][:, k] of user k
    at transmitter j; a zero column means the link carries no power."""
    sigma2 = np.asarray(channels.sigma2, dtype=float)
    g = link_gains(channels.H, U)
    exchanged = {}
    for j, U_j in enumerate(U):
        g_j = g[:, :, j]
        g_j[g_j * (U_j.shape[0] * hw.per_antenna_limit[j]) < GAIN_FLOOR * sigma2[:, None]] = 0.0
        exchanged[j] = int(np.count_nonzero(g_j) + np.count_nonzero(np.abs(U_j) ** 2))
    return Directions(U, g, exchanged)


def allocate_power(intermediate: Directions, hw, gtilde, sigma2) -> np.ndarray:
    """Minimum-consumption power split over the fixed directions.

    Raises RzfInfeasibleError when no power allocation meets the SINR targets
    along these directions; the full problem may still be feasible.
    """
    gtilde = np.asarray(gtilde, dtype=float)
    U = intermediate.U
    K, T = len(gtilde), len(U)
    pk, pj = np.nonzero(np.array([U_j.any(axis=0) for U_j in U]).T)   # (k, j) order
    if not pk.size:
        if np.any(gtilde > 0):
            raise RzfInfeasibleError("no link can carry power to a user with a target")
        return np.zeros((K, T))

    prob = ConicProblem([Block(NONNEG, pk.size)])
    prob.set_objective({0: np.asarray(hw.rho, dtype=float)[pj]})
    # QoS rows per unit of noise power, matching the relaxation's scaling.
    g = intermediate.g
    for k in range(K):
        if gtilde[k] <= 0:
            continue
        row = np.where(pk == k, g[k, k, pj] / gtilde[k], -g[k, pk, pj]) / float(sigma2[k])
        prob.add_constraint({0: row}, ">=", 1.0)
    for j in range(T):
        rows = np.where(pj == j, np.abs(U[j][:, pk]) ** 2, 0.0)
        for row in rows:
            if np.any(row):
                prob.add_constraint({0: row}, "<=", float(hw.per_antenna_limit[j]))

    sol = cs.solve(prob)
    if sol.status == cs.INFEASIBLE:
        raise RzfInfeasibleError("fixed directions cannot meet the SINR targets")
    if sol.status != cs.OPTIMAL:
        raise NumericalFailureError(
            f"power allocation ended with status {sol.status}: {sol.message}",
            {"primal": sol.residual_primal, "dual": sol.residual_dual, "gap": sol.residual_gap})
    p = np.zeros((K, T))
    p[pk, pj] = np.maximum(sol.block_values[0], 0.0)
    return p


def rzf_directions(channels: ChannelSet, hw, gtilde) -> Directions:
    K = channels.num_users
    gtilde = np.asarray(gtilde, dtype=float)
    U = [np.zeros((n, K), dtype=complex) for n in channels.antenna_counts]
    txs = [j for j, n in enumerate(channels.antenna_counts) if n]
    for j in txs:
        if hw.per_antenna_limit[j] <= 0:
            raise InvalidInputError(f"transmitter {j} has antennas but a zero power cap")
    G, gram = scaled_channels(channels, txs)
    q = np.array([hw.per_antenna_limit[j] for j in txs], dtype=float)
    for target in np.unique(gtilde[gtilde > 0]):
        users = gtilde == target
        Y = regularized_inverse(gram, 1.0, K / (target * q))
        for j, G_t, Y_t in zip(txs, G, Y):
            X = G_t @ Y_t[:, users]
            norm = np.linalg.norm(X, axis=0)
            U[j][:, users] = np.divide(X, norm, out=np.zeros_like(X), where=norm > 0)
    return couplings(channels, hw, U)


def rzf_solve(problem: CoordinationProblem) -> BeamformingSolution:
    """Full heuristic: directions, power LP, beamformers w = sqrt(p) u."""
    ch = problem.channels
    gt = problem.gtilde
    inter = rzf_directions(ch, problem.hw, gt)
    p = allocate_power(inter, problem.hw, gt, ch.sigma2)
    return _finish(inter.beams(p), problem, exchanged_scalars=dict(inter.exchanged))
