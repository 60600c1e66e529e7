"""Minimum-power allocation over fixed beam directions.

Both solvers end here.  The heuristic's regularized directions and the exact
solver's uplink directions are unit vectors u_{k,j}; the scalar couplings
|h_{i,j}^H u_{k,j}|^2 and |u_{k,j}[l]|^2 define a small LP in the per-link
powers p_{k,j}.  A coupling is left out (exchanged as zero) only when even
the full power n_j q_j of transmitter j along u_{k,j} would deliver less than
GAIN_FLOOR of user i's noise power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conic_solver as cs
from .conic_problem import NONNEG, Block, ConicProblem
from .exceptions import NumericalFailureError, RzfInfeasibleError

# A coupling g[i, k, j] whose worst-case received power g * n_j * q_j is below
# this share of sigma_i^2 is treated as exactly zero and never exchanged.  The
# floor is relative to the noise, not to the peak gain at the transmitter: the
# couplings left out then shift a delivered SINR by far less than the 1e-6
# relative miss that the verification allows, while a peak-relative floor can
# drop interference worth more than that at paper scale.
GAIN_FLOOR = 1e-10


@dataclass
class Directions:
    u: list                 # u[k][j], unit-norm direction or zero vector
    g: np.ndarray           # (K, K, T): g[i, k, j] = |h_{i,j}^H u_{k,j}|^2
    qscal: list             # qscal[j][l, k] = |u_{k,j}[l]|^2
    exchanged: dict         # per-transmitter count of nonzero exchanged scalars

    def beams(self, p: np.ndarray) -> list:
        """Beamformers w[k][j] = sqrt(p[k, j]) u[k][j]."""
        return [[np.sqrt(p[k, j]) * u_kj for j, u_kj in enumerate(row)]
                for k, row in enumerate(self.u)]


def couplings(channels, hw, U: list) -> Directions:
    """The scalars the power LP reads for the directions U[j][:, k] of user k
    at transmitter j; a zero column means the link carries no power."""
    K = channels.num_users
    sigma2 = np.asarray(channels.sigma2, dtype=float)
    g = np.zeros((K, K, len(U)))
    qscal = [np.abs(U_j) ** 2 for U_j in U]
    exchanged = {}
    for j, U_j in enumerate(U):
        n = U_j.shape[0]
        if n == 0:
            exchanged[j] = 0
            continue
        amp = channels.stacked(j).conj().T @ U_j
        g_j = amp.real ** 2 + amp.imag ** 2
        g_j[g_j * (n * hw.per_antenna_limit[j]) < GAIN_FLOOR * sigma2[:, None]] = 0.0
        g[:, :, j] = g_j
        has_direction = np.linalg.norm(U_j, axis=0) > 0
        exchanged[j] = int(np.count_nonzero(g_j) + np.count_nonzero(qscal[j][:, has_direction]))
    u = [[U_j[:, k].copy() for U_j in U] for k in range(K)]
    return Directions(u, g, qscal, exchanged)


def allocate_power(intermediate: Directions, hw, gtilde, sigma2) -> np.ndarray:
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
