"""Beam directions from a regularized channel-Gram inverse, and the
minimum-power allocation over them.

Both solvers build their directions by one rule: user k's direction at
transmitter j is (G_j diag(a) G_j^H + r_k I)^{-1} g_{k,j}, with the exact
solver's QoS multipliers as weights a (uplink-downlink duality) and the
heuristic's unit weights with per-target regularizers.  Both then end in the
same LP: the scalar couplings |h_{i,j}^H u_{k,j}|^2 and |u_{k,j}[l]|^2 of the
unit directions u_{k,j} define a small LP in the per-link powers p_{k,j}.  A
coupling is left out (exchanged as zero) only when even the full power
n_j q_j of transmitter j along u_{k,j} would deliver less than GAIN_FLOOR of
user i's noise power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

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


def regularized_solve(G: np.ndarray, a, r) -> np.ndarray:
    """X[:, k] = (G diag(a) G^H + r_k I)^{-1} G[:, k] for an (n, K) stack G,
    with one Cholesky factor per distinct r_k.  A column with r_k = inf is
    zero, the limit of the rule."""
    r = np.broadcast_to(r, G.shape[1])
    gram = (G * a) @ G.conj().T
    X = np.zeros_like(G)
    for value in np.unique(r[np.isfinite(r)]):
        cols = r == value
        factor = la.cho_factor(gram + value * np.eye(G.shape[0]))
        X[:, cols] = la.cho_solve(factor, G[:, cols])
    return X


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
    K = channels.num_users
    sigma2 = np.asarray(channels.sigma2, dtype=float)
    g = np.zeros((K, K, len(U)))
    exchanged = {}
    for j, U_j in enumerate(U):
        amp = channels.H[j].conj().T @ U_j
        g_j = amp.real ** 2 + amp.imag ** 2
        g_j[g_j * (U_j.shape[0] * hw.per_antenna_limit[j]) < GAIN_FLOOR * sigma2[:, None]] = 0.0
        g[:, :, j] = g_j
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
