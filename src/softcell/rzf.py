"""Low-complexity multiflow beamforming: fixed per-transmitter directions from a
regularized channel-Gram inverse, then a centralized linear power allocation.

Each transmitter j forms, independently and from local channel knowledge only,

    u_{k,j} = normalize( (sum_i h_{i,j} h_{i,j}^H / sigma_i^2 + K/(gt_k q_j) I)^{-1} h_{k,j} ),

with the regularizer depending on the target user's SINR requirement gt_k and
the per-antenna cap q_j.  Only the scalar couplings |h_{i,j}^H u_{k,j}|^2 and
|u_{k,j}[l]|^2 travel over the backhaul; the power split across transmitters
then solves a small LP in the per-link powers p_{k,j}.  A coupling is left out
(exchanged as zero) only when even the full power n_j q_j of transmitter j
along u_{k,j} would deliver less than GAIN_FLOOR of user i's noise power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conic_solver as cs
from .conic_problem import NONNEG, Block, ConicProblem
from .coordination import BeamformingSolution, CoordinationProblem, _finish
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
class RzfIntermediate:
    u: list                 # u[k][j], unit-norm direction or zero vector
    g: np.ndarray           # (K, K, T): g[i, k, j] = |h_{i,j}^H u_{k,j}|^2
    qscal: list             # qscal[j][l, k] = |u_{k,j}[l]|^2
    exchanged: dict         # per-transmitter count of nonzero exchanged scalars


def rzf_directions(channels: ChannelSet, hw, gtilde) -> RzfIntermediate:
    K, T = channels.num_users, channels.num_transmitters
    gtilde = np.asarray(gtilde, dtype=float)
    sigma2 = np.asarray(channels.sigma2, dtype=float)
    u = [[np.zeros(channels.antennas(j), dtype=complex) for j in range(T)] for _ in range(K)]
    g = np.zeros((K, K, T))
    qscal = [np.zeros((channels.antennas(j), K)) for j in range(T)]
    exchanged = {}
    for j in range(T):
        n = channels.antennas(j)
        if n == 0:
            exchanged[j] = 0
            continue
        q_j = hw.per_antenna_limit[j]
        if q_j <= 0:
            raise InvalidInputError(f"transmitter {j} has antennas but a zero power cap")
        H = channels.stacked(j)
        gram = (H / sigma2) @ H.conj().T
        U = np.zeros((n, K), dtype=complex)
        for k in range(K):
            if gtilde[k] <= 0:
                continue
            reg = K / (gtilde[k] * q_j)
            direction = np.linalg.solve(gram + reg * np.eye(n), H[:, k])
            norm = np.linalg.norm(direction)
            if norm > 0:
                U[:, k] = u[k][j] = direction / norm

        amp = H.conj().T @ U
        g_j = amp.real ** 2 + amp.imag ** 2
        g_j[g_j * (n * q_j) < GAIN_FLOOR * sigma2[:, None]] = 0.0
        g[:, :, j] = g_j
        qscal[j] = np.abs(U) ** 2
        has_direction = np.linalg.norm(U, axis=0) > 0
        exchanged[j] = int(np.count_nonzero(g_j) + np.count_nonzero(qscal[j][:, has_direction]))
    return RzfIntermediate(u, g, qscal, exchanged)


def allocate_power(intermediate: RzfIntermediate, hw, gtilde, sigma2) -> np.ndarray:
    """Minimum-consumption power split over the fixed directions.

    Raises RzfInfeasibleError when no power allocation meets the SINR targets
    along these directions; the full problem may still be feasible.
    """
    gtilde = np.asarray(gtilde, dtype=float)
    K = len(gtilde)
    T = len(intermediate.qscal)
    pairs = [(k, j) for k in range(K) for j in range(T)
             if np.linalg.norm(intermediate.u[k][j]) > 0]
    if not pairs:
        return np.zeros((K, T))
    pk, pj = np.array(pairs).T          # user and transmitter of each column

    prob = ConicProblem([Block(NONNEG, len(pairs))])
    prob.set_objective({0: np.array([hw.rho[j] for _, j in pairs])})
    # QoS rows per unit of noise power, matching the relaxation's scaling.
    g = intermediate.g
    for k in range(K):
        if gtilde[k] <= 0:
            continue
        row = np.where(pk == k, g[k, k, pj] / gtilde[k], -g[k, pk, pj]) / float(sigma2[k])
        prob.add_constraint({0: row}, ">=", 1.0)
    for j in range(T):
        rows = np.where(pj == j, intermediate.qscal[j][:, pk], 0.0)
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
    values = sol.block_values[0]
    for idx, (k, j) in enumerate(pairs):
        p[k, j] = max(float(values[idx]), 0.0)
    return p


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
    w = [[np.sqrt(p[k, j]) * u_kj for j, u_kj in enumerate(row)] for k, row in enumerate(inter.u)]
    return _finish(w, problem, exchanged_scalars=dict(inter.exchanged))
