"""Power-minimal coordinated beamforming with dual certificates.

Fast path first (_solve_uplink).  With the per-antenna cap multipliers at
zero the dual of the semidefinite relaxation needs no PSD solve: its QoS
multipliers are the fixed point of a standard interference function, the
beams follow by uplink-downlink duality, and the power LP of
:mod:`softcell.allocation` sets their powers.  When the LP's objective meets
the dual bound within the conic solver's certification gap, both are optimal.

Fallback, for every case the fast path cannot certify (a binding cap,
infeasible targets, a fixed point that does not settle): build the relaxed
program in the per-link matrices W_{k,j} (one PSD block per served user and
transmitter), solve it with the conic engine, repair any block whose optimal
matrix is not numerically rank-one by the trace/interference-preserving
replacement program, and extract beamforming vectors and dual certificates.
Either way the topology's static power is added.

The relaxation is exact: a rank-one optimal solution always exists, so an
infeasible relaxation certifies infeasibility of the original problem and the
repaired rank-one objective matches the relaxed optimum to solver accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from . import conic_solver as cs
from .allocation import allocate_power, couplings
from .conic_problem import PSD, Block, ConicProblem
from .evaluation import SERVING_SHARE, evaluate, link_powers, serving_sets
from .exceptions import (InfeasibleProblemError, InvalidInputError, NumericalFailureError,
                         RzfInfeasibleError)
from .power import HardwareProfile, check_power_constraints, circuit_power, dynamic_power
from .scenario import ChannelSet

BS_ONLY = "bs_only"
SINGLE_SCA = "single_sca"
MULTIFLOW = "multiflow"
UNSERVED = "unserved"

# A relaxed block whose eigenvalue ratio lam2/lam1 is at most RANK_TOL counts
# as rank-one and is truncated to its dominant pair by repair_rank.
RANK_TOL = 1e-6
# Relative tolerance of the check that a solution meets its SINR targets (its
# caps are checked at check_power_constraints' default, also 1e-6).
FEASIBILITY_TOL = 1e-6
# Uplink fixed point (_solve_uplink): the iteration limit, the relative change
# of every lambda_k that ends it, and the share of a user's largest dual-row
# gain within which a transmitter counts as tight and may serve the user.
UPLINK_MAX_ITERS = 500
UPLINK_TOL = 1e-12
UPLINK_TIE = 1e-6


@dataclass(frozen=True)
class CoordinationProblem:
    channels: ChannelSet
    hw: HardwareProfile
    gamma: tuple[float, ...]        # per-user QoS in bits/s/Hz

    def __post_init__(self):
        if len(self.gamma) != self.channels.num_users:
            raise InvalidInputError("need one QoS target per user")
        if self.hw.num_transmitters < self.channels.num_transmitters:
            raise InvalidInputError("hardware profile does not cover all transmitters")

    @property
    def gtilde(self) -> np.ndarray:
        """SINR targets 2^gamma - 1."""
        return np.exp2(np.asarray(self.gamma)) - 1.0

    def qos_users(self) -> list[int]:
        return [k for k, g in enumerate(self.gamma) if g > 0]

    def active_transmitters(self) -> list[int]:
        return [j for j in range(self.channels.num_transmitters) if self.channels.antennas(j) > 0]


@dataclass
class BeamformingSolution:
    """Beamformers w[k][j] and the numbers reported for them.  The per-link
    matrices W, powers p and serving sets are derived from w on access."""

    w: list                         # w[k][j] complex vector (sqrt mW)
    objective_dynamic: float        # mW
    objective_static: float         # mW
    objective_total: float          # mW
    repair_needed: bool = False
    exchanged_scalars: dict | None = None   # per-SCA backhaul scalar counts
    # Relaxed optimum (dynamic, mW): the IPM's value before repair, or on the
    # fast path the certified dual bound sum lambda.
    objective_relaxation: float = float("nan")

    @property
    def W(self) -> list:
        """W[k][j] = w w^H, Hermitian PSD (mW)."""
        return [[np.outer(v, v.conj()) for v in row] for row in self.w]

    @property
    def p(self) -> np.ndarray:
        """(K, T) emitted power per link, mW."""
        return link_powers(self.w)

    @property
    def serving(self) -> list:
        """Tuple of serving transmitter indices per user."""
        return serving_sets(self.p)


@dataclass
class DualCertificate:
    """QoS multipliers lambda_k and per-antenna multipliers mu[j][l].  The
    uplink-duality matrices A_k / B_k they define are block-diagonal per
    transmitter; verify_duality forms their quadratic forms block by block."""

    lam: np.ndarray                 # (K,)
    mu: list                        # mu[j]: array over antennas of transmitter j


@dataclass
class Relaxation:
    conic: ConicProblem
    block_of: dict                  # (k, j) -> PSD block index
    qos_row: dict                   # k -> constraint index
    power_row: dict                 # (j, l) -> constraint index


@dataclass
class UserAssignment:
    user: int
    case: str
    serving: tuple
    licensed_by: tuple = ()         # active power constraints (j, l) for multiflow


@dataclass
class AssignmentReport:
    assignments: list
    diagnostics: list = field(default_factory=list)

    def count(self, case: str) -> int:
        return sum(1 for a in self.assignments if a.case == case)


def build_relaxation(problem: CoordinationProblem) -> Relaxation:
    """Relaxed program: one PSD block per (QoS user, active transmitter).

    Objective sum_j rho_j sum_k tr W_{k,j}; QoS row of user k reads
    sum_j h_{k,j}^H [(1 + 1/gt_k) W_{k,j} - sum_i W_{i,j}] h_{k,j} >= sigma_k^2,
    whose own-block coefficient collapses to (1/gt_k) h h^H; per-antenna rows
    cap sum_k W_{k,j}[l,l].  Users with gamma = 0 carry no variables (their
    optimal blocks are zero).  Static power is not part of the program.
    """
    ch, gt = problem.channels, problem.gtilde
    users = problem.qos_users()
    txs = problem.active_transmitters()
    if any(gt[k] <= 0 for k in users):
        raise InvalidInputError("QoS row requested with nonpositive SINR target")

    blocks, block_of = [], {}
    for k in users:
        for j in txs:
            block_of[(k, j)] = len(blocks)
            blocks.append(Block(PSD, ch.antennas(j)))
    conic = ConicProblem(blocks)
    conic.set_objective({block_of[(k, j)]: problem.hw.rho[j] * np.eye(ch.antennas(j), dtype=complex)
                         for k in users for j in txs})

    # QoS rows are stated per unit of noise power (both sides divided by
    # sigma_k^2): coefficients land within a few orders of unity and the row
    # multiplier is exactly the lambda_k of the duality certificate.
    qos_row = {}
    for k in users:
        coeffs = {}
        for j in txs:
            h = ch.h[k][j]
            hh = np.outer(h, h.conj()) / float(ch.sigma2[k])
            for i in users:
                coeffs[block_of[(i, j)]] = ((1.0 / gt[k]) * hh if i == k else -hh)
        qos_row[k] = conic.add_constraint(coeffs, ">=", 1.0)

    power_row = {}
    for j in txs:
        n = ch.antennas(j)
        q = problem.hw.per_antenna_limit[j]
        for l in range(n):
            Q = np.zeros((n, n), dtype=complex)
            Q[l, l] = 1.0
            power_row[(j, l)] = conic.add_constraint(
                {block_of[(k, j)]: Q for k in users}, "<=", q)
    return Relaxation(conic, block_of, qos_row, power_row)


def _dominant_rank_one(W: np.ndarray) -> np.ndarray:
    """Vector w with a fixed phase such that w w^H is W's dominant eigenpair."""
    vals, vecs = np.linalg.eigh(W)
    lam1 = max(vals[-1], 0.0)
    v = vecs[:, -1]
    anchor = np.argmax(np.abs(v))
    phase = v[anchor] / abs(v[anchor]) if abs(v[anchor]) > 0 else 1.0
    return np.sqrt(lam1) * (v / phase)


def repair_rank(W: list, problem: CoordinationProblem) -> tuple[list, bool]:
    """Beam vectors w[k][j] whose rank-one blocks w w^H preserve objective and
    feasibility of the relaxed blocks W[k][j], and whether any block needed the
    replacement program below.

    Blocks carrying a negligible share of their user's power are zeroed; blocks
    with eigenvalue ratio lam2/lam1 <= RANK_TOL are truncated to the dominant pair.
    Any remaining block (k, j) is replaced by the optimum of

        max  h_{k,j}^H V h_{k,j}
        s.t. tr V <= tr W,  V[l,l] <= W[l,l] per antenna,  V >= 0,
             h_{i,j}^H V h_{i,j} <= h_{i,j}^H W h_{i,j}  for all other QoS users i,

    which keeps every row of the relaxed program satisfied while not reducing
    the user's own signal; its optimum is rank-one and is truncated as such.
    """
    ch, hw, gt = problem.channels, problem.hw, problem.gtilde
    users = set(problem.qos_users())
    w = [[np.zeros(Wkj.shape[0], dtype=complex) for Wkj in row] for row in W]
    obj_scale = 1.0 + sum(hw.rho[j] * np.real(np.trace(Wkj))
                          for row in W for j, Wkj in enumerate(row) if Wkj.size)
    needed = False
    for k, row in enumerate(W):
        traces = [np.real(np.trace(Wkj)) if Wkj.size else 0.0 for Wkj in row]
        total = sum(traces)
        for j, Wkj in enumerate(row):
            if Wkj.size == 0 or traces[j] <= SERVING_SHARE * total or total == 0.0:
                continue
            # Interior-point noise: a block whose cost and own QoS-row
            # contribution are both below 1e-8 of their row scales cannot be
            # load-bearing; zeroing it is within every downstream tolerance,
            # while replacing it would solve an arbitrarily ill-conditioned
            # program built from roundoff.
            if hw.rho[j] * traces[j] <= 1e-8 * obj_scale and k in users:
                h = ch.h[k][j]
                own_row = float(np.real(h.conj() @ Wkj @ h)) / (gt[k] * float(ch.sigma2[k]))
                if own_row <= 1e-8:
                    continue
            vals = np.linalg.eigvalsh(Wkj)
            if vals[-1] <= 0:
                continue
            if len(vals) == 1 or max(vals[-2], 0.0) / vals[-1] <= RANK_TOL:
                w[k][j] = _dominant_rank_one(Wkj)
                continue
            needed = True
            w[k][j] = _replace_block(Wkj, k, j, users, ch)
    return w, needed


def _replace_block(Wkj: np.ndarray, k: int, j: int, users: set, ch: ChannelSet) -> np.ndarray:
    # Stated in units of the incumbent block: V = trace(W) * X with every row
    # normalized to rhs 1 and the objective to optimum -1, so the solver sees
    # a well-scaled program regardless of how small this block's power is.
    n = Wkj.shape[0]
    tr = float(np.real(np.trace(Wkj)))
    h = ch.h[k][j]
    own = float(np.real(h.conj() @ Wkj @ h))
    prob = ConicProblem([Block(PSD, n)])
    prob.set_objective({0: -np.outer(h, h.conj()) * (tr / max(own, 1e-300))})
    prob.add_constraint({0: np.eye(n, dtype=complex)}, "<=", 1.0)
    for l in range(n):
        Q = np.zeros((n, n), dtype=complex)
        wl = float(np.real(Wkj[l, l]))
        Q[l, l] = tr / wl if wl > 0 else 1.0
        prob.add_constraint({0: Q}, "<=", 1.0 if wl > 0 else 0.0)
    for i in sorted(users - {k}):
        hi = ch.h[i][j]
        gain = float(np.real(hi.conj() @ Wkj @ hi))
        if gain > 0:
            prob.add_constraint({0: np.outer(hi, hi.conj()) * (tr / gain)}, "<=", 1.0)
        else:
            prob.add_constraint({0: np.outer(hi, hi.conj())}, "<=", 0.0)
    sol = cs.solve(prob)
    if sol.status != cs.OPTIMAL:
        raise NumericalFailureError(
            f"rank repair of block ({k}, {j}) failed with status {sol.status}",
            {"primal": sol.residual_primal, "dual": sol.residual_dual, "gap": sol.residual_gap})
    return _dominant_rank_one(tr * sol.block_values[0])


def _solve_uplink(problem: CoordinationProblem):
    """The optimum without a PSD solve, or None where it cannot be certified.

    With the cap multipliers mu at 0, the dual of the relaxation is

        max sum_k lambda_k  s.t.  lambda_k h_kj^H B_kj^-1 h_kj / sigma_k^2 <= gt_k  for all j,
        B_kj = rho_j I + sum_{i != k} lambda_i h_ij h_ij^H / sigma_i^2,

    and its optimum is the fixed point of the standard interference function
    lambda_k <- gt_k sigma_k^2 / max_j h_kj^H B_kj^-1 h_kj.  From lambda = 0
    the iterates rise monotonically and each is dual feasible.  One Cholesky
    factor of C_j = B_kj + lambda_k h_kj h_kj^H / sigma_k^2 per transmitter
    serves all users: by Sherman-Morrison h^H B^-1 h = x / (1 - lambda_k x /
    sigma_k^2) with x = h^H C_j^-1 h.  By uplink-downlink duality user k's beam
    at j is parallel to C_j^-1 h_kj, and by complementary slackness only the
    transmitters whose dual row is tight (within UPLINK_TIE of the max) may
    serve k.  The power LP over these directions gives a cap-feasible solution
    whose objective is an upper bound on the optimum; sum lambda is a lower
    bound.  Within CERT_GAP of each other, both are optimal.

    None leaves the problem to the relaxation: lambda has not settled within
    UPLINK_MAX_ITERS, or sum lambda exceeds the power of every antenna at its
    cap (no feasible point costs that much, so the targets are infeasible),
    or the LP or the verification fails, or a cap binds and the gap stays open.
    """
    ch, hw, gt = problem.channels, problem.hw, problem.gtilde
    K, T = ch.num_users, ch.num_transmitters
    users = problem.qos_users()
    txs = problem.active_transmitters()
    G = [ch.stacked(j) / np.sqrt(np.asarray(ch.sigma2, dtype=float)) for j in txs]
    ceiling = sum(hw.rho[j] * ch.antennas(j) * hw.per_antenna_limit[j] for j in txs)
    lam = np.zeros(K)
    for _ in range(UPLINK_MAX_ITERS):
        X, gain = [], np.zeros((K, len(txs)))
        for t, (j, G_j) in enumerate(zip(txs, G)):
            C = (G_j * lam) @ G_j.conj().T
            C[np.diag_indices_from(C)] += hw.rho[j]
            X.append(la.cho_solve(la.cho_factor(C), G_j))
            x = np.einsum("ik,ik->k", G_j.conj(), X[-1]).real
            gain[:, t] = x / (1.0 - lam * x)
        best = gain.max(axis=1)
        if np.any(best[users] <= 0.0):
            return None
        new = lam.copy()
        new[users] = gt[users] / best[users]
        if not (np.all(np.isfinite(new)) and new.sum() <= ceiling):
            return None
        settled = np.all(new - lam <= UPLINK_TOL * new)
        lam = new
        if settled:
            break
    else:
        return None

    U = [np.zeros((ch.antennas(j), K), dtype=complex) for j in range(T)]
    for t, j in enumerate(txs):
        serve = [k for k in users if gain[k, t] >= (1.0 - UPLINK_TIE) * best[k]]
        U[j][:, serve] = X[t][:, serve] / np.linalg.norm(X[t][:, serve], axis=0)
    bound = float(lam.sum())
    try:
        directions = couplings(ch, hw, U)
        p = allocate_power(directions, hw, gt, ch.sigma2)
        solution = _finish(directions.beams(p), problem, objective_relaxation=bound)
    except (RzfInfeasibleError, NumericalFailureError):
        return None
    dyn = solution.objective_dynamic
    if abs(dyn - bound) > cs.CERT_GAP * max(1.0, abs(dyn), abs(bound)):
        return None
    return solution, DualCertificate(lam, [np.zeros(ch.antennas(j)) for j in range(T)])


def solve_optimal(problem: CoordinationProblem) -> tuple[BeamformingSolution, DualCertificate]:
    """Exact minimum-power coordination with dual certificates: the uplink
    fixed point where it certifies, otherwise the relaxation and rank repair.

    Raises InfeasibleProblemError when the relaxation (hence the original
    problem) is infeasible and NumericalFailureError when the solve or the
    repaired solution cannot be certified.
    """
    ch = problem.channels
    K, T = ch.num_users, ch.num_transmitters
    users = problem.qos_users()

    if not users:
        w = [[np.zeros(ch.antennas(j), dtype=complex) for j in range(T)] for _ in range(K)]
        cert = DualCertificate(np.zeros(K), [np.zeros(ch.antennas(j)) for j in range(T)])
        return _finish(w, problem), cert

    exact = _solve_uplink(problem)
    if exact is not None:
        return exact

    relax = build_relaxation(problem)
    conic_sol = cs.solve(relax.conic)
    if conic_sol.status == cs.INFEASIBLE:
        raise InfeasibleProblemError(
            "QoS targets unattainable under the power constraints (exact relaxation infeasible)",
            certificate=conic_sol.duals)
    if conic_sol.status != cs.OPTIMAL:
        raise NumericalFailureError(
            f"relaxation solve ended with status {conic_sol.status}: {conic_sol.message}",
            {"primal": conic_sol.residual_primal, "dual": conic_sol.residual_dual,
             "gap": conic_sol.residual_gap})

    W = [[conic_sol.block_values[relax.block_of[(k, j)]] if (k, j) in relax.block_of
          else np.zeros((ch.antennas(j),) * 2, dtype=complex) for j in range(T)]
         for k in range(K)]
    w, needed = repair_rank(W, problem)
    sdp_dyn = conic_sol.primal_objective
    solution = _finish(w, problem, repair_needed=needed, objective_relaxation=sdp_dyn)
    if abs(solution.objective_dynamic - sdp_dyn) > 1e-4 * (1.0 + abs(sdp_dyn)):
        raise NumericalFailureError(
            "rank repair moved the objective beyond tolerance",
            {"repaired": solution.objective_dynamic, "relaxation": sdp_dyn})

    lam = np.zeros(K)
    for k in users:
        lam[k] = max(conic_sol.duals[relax.qos_row[k]], 0.0)
    mu = [np.zeros(ch.antennas(j)) for j in range(T)]
    for (j, l), row in relax.power_row.items():
        mu[j][l] = max(conic_sol.duals[row], 0.0)
    return solution, DualCertificate(lam, mu)


def _finish(w: list, problem: CoordinationProblem, **meta) -> BeamformingSolution:
    """Solution for beamformers w: dynamic power, the topology's static power,
    and an independent check that w meets every target and cap."""
    p_dyn = dynamic_power(w, problem.hw)
    p_stat = circuit_power(problem.hw, problem.channels.antenna_counts)
    solution = BeamformingSolution(w, p_dyn, p_stat, p_dyn + p_stat, **meta)
    _verify_feasible(solution, problem)
    return solution


def _verify_feasible(solution: BeamformingSolution, problem: CoordinationProblem) -> None:
    """Raise unless the solution meets every SINR target and per-antenna cap."""
    report = evaluate(solution, problem.channels, problem.hw, problem.gamma)
    gt = problem.gtilde
    for k in problem.qos_users():
        if report.sinr[k] < gt[k] * (1.0 - FEASIBILITY_TOL):
            raise NumericalFailureError(
                f"solution misses the SINR target of user {k}",
                {"sinr": report.sinr[k], "target": gt[k]})
    for slack in report.power_slacks:
        if slack.violated:
            raise NumericalFailureError(
                f"solution violates the cap of antenna {slack.antenna} "
                f"at transmitter {slack.transmitter}",
                {"used": slack.used_mw, "limit": slack.limit_mw})


@dataclass
class DualityReport:
    residual: np.ndarray            # per-user relative residual (nan if skipped)
    max_residual: float
    skipped: tuple                  # users with no QoS row or no emitted power

    def ok(self, tol: float = 1e-4) -> bool:
        return self.max_residual <= tol


def verify_duality(solution: BeamformingSolution, certificate: DualCertificate,
                   problem: CoordinationProblem) -> DualityReport:
    """Check the uplink-downlink duality: for every actively served QoS user,
    lambda_k (u_k^H A_k u_k) / (u_k^H B_k u_k) must equal the SINR target,
    where u_k stacks u_{k,j} = sqrt(rho_j) w_{k,j} over the transmitters and

        A_i = (1/sigma_i^2) blockdiag_j (1/rho_j) h_{i,j} h_{i,j}^H,
        B_k = I + sum_{i != k} lambda_i A_i + blockdiag_j diag(mu_j / rho_j).

    Both are block-diagonal per transmitter, so with u unnormalized
    u^H A_i u = sum_j |h_{i,j}^H w_{k,j}|^2 / sigma_i^2 and the cap term of
    u^H B_k u is sum_{j,l} mu_{j,l} |w_{k,j}[l]|^2."""
    if certificate is None:
        raise InvalidInputError("verify_duality requires a dual certificate")
    ch, hw = problem.channels, problem.hw
    gt, lam, mu = problem.gtilde, certificate.lam, certificate.mu
    users, txs = problem.qos_users(), problem.active_transmitters()
    residual = np.full(ch.num_users, np.nan)
    skipped = []
    for k in range(ch.num_users):
        w = solution.w[k]
        uu = sum(hw.rho[j] * np.vdot(w[j], w[j]).real for j in txs)
        if problem.gamma[k] <= 0 or uu <= 0:
            skipped.append(k)
            continue
        uAu = {i: sum(abs(np.vdot(ch.h[i][j], w[j])) ** 2 for j in txs) / float(ch.sigma2[i])
               for i in users}
        uBu = (uu + sum(lam[i] * uAu[i] for i in users if i != k)
               + sum(mu[j] @ np.abs(w[j]) ** 2 for j in txs))
        up = lam[k] * uAu[k] / uBu
        residual[k] = abs(up - gt[k]) / gt[k]
    finite = residual[np.isfinite(residual)]
    return DualityReport(residual, float(finite.max()) if finite.size else 0.0, tuple(skipped))


def serving_case(serving: tuple) -> str:
    """Case of a user served by the transmitters in `serving` (0 is the BS)."""
    if not serving:
        return UNSERVED
    if len(serving) > 1:
        return MULTIFLOW
    return BS_ONLY if serving[0] == 0 else SINGLE_SCA


def classify_assignment(solution: BeamformingSolution, hw: HardwareProfile) -> AssignmentReport:
    """Per-user serving case with the active power constraints licensing multiflow.

    A cap is active within check_power_constraints' default tolerance.  A
    multiflow user without any active constraint at a serving transmitter is
    reported as a consistency diagnostic (it signals solver inaccuracy or an
    eigenvalue-multiplicity corner), never as an error.
    """
    slacks = check_power_constraints(solution, hw)
    active = {(s.transmitter, s.antenna) for s in slacks if s.active or s.violated}
    assignments, diagnostics = [], []
    for k, serving in enumerate(solution.serving):
        case = serving_case(serving)
        if case != MULTIFLOW:
            assignments.append(UserAssignment(k, case, serving))
            continue
        licensed = tuple(sorted((j, l) for (j, l) in active if j in serving))
        assignments.append(UserAssignment(k, MULTIFLOW, serving, licensed))
        if not licensed:
            diagnostics.append(
                f"user {k} is multiflow with no active power constraint at a serving transmitter")
    return AssignmentReport(assignments, diagnostics)


def export_user_csv(solution: BeamformingSolution, report, assignments: AssignmentReport) -> str:
    """Per-link rows `user,transmitter,emitted_mw,sinr,case` (aggregate SINR per user)."""
    lines = ["user,transmitter,emitted_mw,sinr,case"]
    p = solution.p
    for a in assignments.assignments:
        sinr = float(report.sinr[a.user])
        if not a.serving:
            lines.append(f"{a.user},,0.0,{sinr!r},{a.case}")
        for j in a.serving:
            lines.append(f"{a.user},{j},{float(p[a.user, j])!r},{sinr!r},{a.case}")
    return "\n".join(lines) + "\n"
