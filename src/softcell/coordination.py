"""Power-minimal coordinated beamforming with dual certificates.

Fast path first (_solve_uplink).  With the per-antenna cap multipliers at
zero the dual of the semidefinite relaxation needs no PSD solve: its QoS
multipliers are the fixed point of a standard interference function.  By
uplink-downlink duality each user is then served by the one transmitter where
its dual row is tightest, along the direction the fixed point already
computed, and the powers that meet every target with equality solve one K x K
linear system.  When no cap binds and their cost meets the dual bound within
the conic solver's certification gap, both are optimal.

Fallback, for every case the fast path cannot certify (a binding cap,
infeasible targets, a cost left beyond the gap): build the relaxed
program in the per-link matrices W_{k,j} (one PSD block per served user and
transmitter), solve it with the conic engine, take every block to rank one in
closed form (repair_rank: w = W h / sqrt(h^H W h), which keeps every relaxed
row at no higher cost), and extract beamforming vectors and dual certificates.

The optimum promotes exclusive assignment, so almost every per-antenna cap is
slack there, and the relaxation first carries only the caps that matter (one
round of row generation, Kelley's cutting planes, 1960): the QoS rows and the
caps that the fast path's beams left active or violated.  Leaving caps out
relaxes the full program, so an answer that meets every left-out cap
(sum_k W_{k,j}[l,l] <= q_j) is the full optimum (mu = 0 on those caps
completes its dual certificate), and an infeasible subset certifies an
infeasible full program.  An answer that breaks a left-out cap, or that the
conic solver returns at reduced precision, gives way to the full program, as
does a fast path that formed no beams: there the program holds every cap from
the start.

Either way, as for the rzf heuristic, _finish is the one place where beams
become a solution: it alone zeroes residue (links below SERVING_SHARE of their
user's signal), and one evaluate of the result gives the power reported,
verifies every target and cap, and
lets _finish refuse a cost beyond CERT_GAP of its certified bound (sum lambda
on the fast path, the relaxed optimum on the fallback).

The relaxation is exact: a rank-one optimal solution always exists, so an
infeasible relaxation certifies infeasibility of the original problem and the
repaired rank-one objective matches the relaxed optimum to solver accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import conic_solver as cs
from .conic_problem import PSD, Block, ConicProblem
from .evaluation import evaluate, link_gains, link_powers, serving_links, serving_sets
from .exceptions import InfeasibleProblemError, InvalidInputError, NumericalFailureError
from .power import HardwareProfile, check_power_constraints
from .scenario import ChannelSet

BS_ONLY = "bs_only"
SINGLE_SCA = "single_sca"
MULTIFLOW = "multiflow"
UNSERVED = "unserved"

# Relative tolerance of the check that a solution meets its SINR targets (its
# caps are checked at power.CAP_TOL, also 1e-6).
FEASIBILITY_TOL = 1e-6
# Largest relative residual of the duality identity that DualityReport.ok accepts.
DUALITY_TOL = 1e-4
# Uplink fixed point (_solve_uplink): the iteration limit and the relative
# change of every lambda_k that ends it.  Rounds needed, measured: the paper's
# setup (full_paper_config) at QoS 1, trials 0-1023, settles within 500 rounds
# except trials 66 (508), 416 (511), 498 (524), 126 (698), 8 (743), 28 (1,096),
# 1007 (1,710) and 513 (4,559); at QoS 0.5, 2 and 3 (trials 0-255) it needs at
# most 139, 27 and 25, and the desk setup (seed 202, QoS 1-3, trials 0-99) at
# most 149.  The slow trials hold a marginal pair: two users on one
# single-antenna small cell at SINR target 1, whose update slopes multiply to
# 1, so lambda grows by a constant each round until one user's BS link wins.
UPLINK_MAX_ITERS = 5000
UPLINK_TOL = 1e-12


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
    """Beamformer stacks w[j] and the numbers reported for them.  The link
    powers p and serving sets (the powered links, see _finish) derive from w."""

    w: list                         # w[j], (antennas(j), K) complex: column k is w_{k,j} (sqrt mW)
    objective_dynamic: float        # mW
    objective_static: float         # mW
    objective_total: float          # mW
    exchanged_scalars: dict | None = None   # per-SCA backhaul scalar counts
    # Relaxed optimum (dynamic, mW): the IPM's value before repair, or on the
    # fast path the certified dual bound sum lambda.
    objective_relaxation: float = float("nan")

    @property
    def p(self) -> np.ndarray:
        """(K, T) emitted power per link, mW."""
        return link_powers(self.w)

    @property
    def serving(self) -> list:
        """Tuple of serving transmitter indices per user."""
        return serving_sets(self.p > 0.0)


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


def antenna_caps(problem: CoordinationProblem) -> list:
    """Every per-antenna cap (j, l) of the relaxation, in its row order."""
    ch = problem.channels
    return [(j, l) for j in problem.active_transmitters() for l in range(ch.antennas(j))]


def build_relaxation(problem: CoordinationProblem, caps=None) -> Relaxation:
    """Relaxed program: one PSD block per (QoS user, active transmitter).

    Objective sum_j rho_j sum_k tr W_{k,j}; QoS row of user k reads
    sum_j h_{k,j}^H [(1 + 1/gt_k) W_{k,j} - sum_i W_{i,j}] h_{k,j} >= sigma_k^2,
    whose own-block coefficient collapses to (1/gt_k) h h^H; per-antenna rows
    cap sum_k W_{k,j}[l,l], for every cap (j, l) of antenna_caps or, given a
    set caps, only for those (in the same order).  Users with gamma = 0 carry
    no variables (their optimal blocks are zero).  Static power is not part of
    the program.
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
            h = ch.H[j][:, k]
            hh = np.outer(h, h.conj()) / float(ch.sigma2[k])
            # One interference coefficient shared by every other user's block,
            # symmetrized here as ConicProblem would symmetrize each copy.
            interference = 0.5 * (-hh - hh.conj().T)
            for i in users:
                coeffs[block_of[(i, j)]] = ((1.0 / gt[k]) * hh if i == k else interference)
        qos_row[k] = conic.add_constraint(coeffs, ">=", 1.0)

    power_row = {}
    for j, l in antenna_caps(problem):
        if caps is not None and (j, l) not in caps:
            continue
        n = ch.antennas(j)
        Q = np.zeros((n, n), dtype=complex)
        Q[l, l] = 1.0
        power_row[(j, l)] = conic.add_constraint(
            {block_of[(k, j)]: Q for k in users}, "<=", problem.hw.per_antenna_limit[j])
    return Relaxation(conic, block_of, qos_row, power_row)


def repair_rank(W: list, problem: CoordinationProblem) -> list:
    """Beamformer stacks w[j] whose rank-one blocks w_{k,j} w_{k,j}^H (column
    k of w[j]) keep every row of the relaxed program that the blocks W[k][j]
    satisfy, at no higher cost.

    Column k of w[j] is W h / sqrt(h^H W h) for W = W[k][j] and h = h_{k,j},
    whatever the rank of W.  By Cauchy-Schwarz in the inner product W,
    |x^H W h|^2 <= (x^H W x)(h^H W h) for every x, so w w^H <= W: no antenna
    power, no trace and no other user's gain grows, while the own signal
    h^H w w^H h = h^H W h is kept.  A block with no own signal is left at zero;
    every other is repaired, and _finish drops what is residue (a block below
    SERVING_SHARE of its user's signal repairs to a beam below it).
    """
    ch = problem.channels
    w = [np.zeros((n, len(W)), dtype=complex) for n in ch.antenna_counts]
    for k, row in enumerate(W):
        for j, Wkj in enumerate(row):
            h = ch.H[j][:, k]
            Wh = Wkj @ h
            own = float(np.real(h.conj() @ Wh))
            if own <= 0.0:
                continue
            w[j][:, k] = Wh / np.sqrt(own)
    return w


def scaled_channels(channels: ChannelSet, txs: list) -> tuple[list, np.ndarray]:
    """Noise-scaled stacks G_t = H_t / sigma (column k over sigma_k) of the
    transmitters txs, and the (T, K, K) stack of their Grams G_t^H G_t."""
    K = channels.num_users
    G = [channels.H[j] / np.sqrt(np.asarray(channels.sigma2, dtype=float)) for j in txs]
    return G, np.array([G_t.conj().T @ G_t for G_t in G], dtype=complex).reshape(len(G), K, K)


def regularized_inverse(gram: np.ndarray, a, r) -> np.ndarray:
    """Y[t] = (diag(a) gram[t] + r[t] I)^{-1} for a (T, K, K) stack of Grams
    gram[t] = G_t^H G_t, in one batched K x K solve.

    By the push-through identity (G diag(a) G^H + r I)^{-1} G = G Y, column k
    of G_t Y[t] is the regularized direction of user k at transmitter t, and
    (gram[t] Y[t])[k, k] is its quadratic form g_k^H (G diag(a) G^H + r I)^{-1} g_k,
    whatever the antenna count n_t.  Both solvers take their directions from it.
    """
    K = gram.shape[-1]
    a = np.broadcast_to(np.asarray(a, dtype=float), K)
    r = np.broadcast_to(np.asarray(r, dtype=float), gram.shape[:1])
    system = a[:, None] * gram + r[:, None, None] * np.eye(K)
    return np.linalg.solve(system, np.broadcast_to(np.eye(K), system.shape))


def _solve_uplink(problem: CoordinationProblem):
    """The optimum without a PSD solve, as a pair (exact, caps).

    exact is (solution, certificate) where the optimum is certified, and caps
    is then None.  Otherwise exact is None and caps is the set of caps (j, l)
    the relaxation starts from beside the QoS rows: those the fixed point's
    beams leave active or violated, or every cap where no beams were formed.

    With the cap multipliers mu at 0, the dual of the relaxation is

        max sum_k lambda_k  s.t.  lambda_k h_kj^H B_kj^-1 h_kj / sigma_k^2 <= gt_k  for all j,
        B_kj = rho_j I + sum_{i != k} lambda_i h_ij h_ij^H / sigma_i^2,

    and its optimum is the fixed point of the standard interference function
    lambda_k <- gt_k sigma_k^2 / max_j h_kj^H B_kj^-1 h_kj.  From lambda = 0
    the iterates rise monotonically and each is dual feasible.  One batched
    K x K solve per round (regularized_inverse, weights lambda, regularizer
    rho_j) serves all users at every transmitter: it gives x = h_kj^H C_j^-1 h_kj
    for C_j = B_kj + lambda_k h_kj h_kj^H / sigma_k^2, and by Sherman-Morrison
    h^H B^-1 h = x / (1 - lambda_k x / sigma_k^2).

    By uplink-downlink duality user k's beam at j is parallel to C_j^-1 h_kj,
    and by complementary slackness only a transmitter whose dual row is tight
    may serve k; user k takes the one with the largest gain, a_k, and only that
    direction is formed.  With unit directions u_k and
    g[i, k] = |h_{i,a_k}^H u_k|^2, the powers that meet every target with
    equality solve M p = sigma^2 over the QoS users, with
    M[k, k] = g[k, k] / gt_k and M[k, i] = -g[k, i].  They cost at least the
    dual bound sum lambda; within CERT_GAP of it, both are optimal.

    Where lambda has not settled within UPLINK_MAX_ITERS, the last round's
    beams are formed all the same: its lambda is still dual feasible, and the
    gap test of _finish alone decides.  No beams are formed, and the
    problem is left to the full relaxation, where sum lambda exceeds the
    power of every antenna at its cap (no feasible point costs that much, so
    the targets are infeasible), or M is singular or gives a negative power.
    Beams that put an emitting antenna at or over its cap, or that _finish
    refuses (a missed target or cap, or a gap left open), leave it to the
    relaxation seeded with their caps.
    """
    ch, hw, gt = problem.channels, problem.hw, problem.gtilde
    K, T = ch.num_users, ch.num_transmitters
    users = problem.qos_users()
    txs = problem.active_transmitters()
    sigma2 = np.asarray(ch.sigma2, dtype=float)
    G, gram = scaled_channels(ch, txs)
    rho = [hw.rho[j] for j in txs]
    ceiling = sum(hw.rho[j] * ch.antennas(j) * hw.per_antenna_limit[j] for j in txs)
    no_beams = None, set(antenna_caps(problem))
    lam = np.zeros(K)
    for _ in range(UPLINK_MAX_ITERS):
        Y = regularized_inverse(gram, lam, rho)
        x = np.einsum("tki,tik->kt", gram, Y).real
        gain = x / (1.0 - lam[:, None] * x)
        best = gain.max(axis=1, initial=0.0)       # 0 without any active transmitter
        if np.any(best[users] <= 0.0):
            return no_beams
        new = lam.copy()
        new[users] = gt[users] / best[users]
        if not (np.all(np.isfinite(new)) and new.sum() <= ceiling):
            return no_beams
        settled = np.all(new - lam <= UPLINK_TOL * new)
        lam = new
        if settled:
            break

    U = [np.zeros((ch.antennas(j), K), dtype=complex) for j in range(T)]
    for k in users:
        t = int(np.argmax(gain[k]))
        u = G[t] @ Y[t][:, k]
        U[txs[t]][:, k] = u / np.linalg.norm(u)
    g = link_gains(ch.H, U).sum(axis=2)
    M = -g[np.ix_(users, users)]
    M[np.diag_indices_from(M)] = g[users, users] / gt[users]
    try:
        p = np.linalg.solve(M, sigma2[users])
    except np.linalg.LinAlgError:
        return no_beams
    if not np.all(np.isfinite(p) & (p >= 0.0)):
        return no_beams
    amplitude = np.zeros(K)
    amplitude[users] = np.sqrt(p)
    w = [U_j * amplitude for U_j in U]
    slacks = check_power_constraints(w, hw)
    # A cap binds only where its antenna emits: a zero cap on a silent antenna does not.
    if not any(s.violated or (s.active and s.used_mw > 0.0) for s in slacks):
        try:
            solution = _finish(w, problem, objective_relaxation=float(lam.sum()))
            return (solution, DualCertificate(lam, [np.zeros(n) for n in ch.antenna_counts])), None
        except NumericalFailureError:
            pass
    return None, {(s.transmitter, s.antenna) for s in slacks if s.active or s.violated}


def _at_target_precision(sol: cs.ConicSolution) -> bool:
    """Whether an optimal conic solution met the solver's target tolerances,
    rather than stopping at reduced precision within its certification bounds."""
    return (sol.residual_primal <= cs.TOL_FEAS and sol.residual_dual <= cs.TOL_FEAS
            and sol.residual_gap <= cs.TOL_GAP)


def solve_optimal(problem: CoordinationProblem) -> tuple[BeamformingSolution, DualCertificate]:
    """Exact minimum-power coordination with dual certificates: the uplink
    fixed point where it certifies, otherwise the relaxation, whose blocks
    repair_rank takes to rank one without a further solve.

    The first relaxation carries the QoS rows and only the caps that the
    fixed point's beams left active or violated (one round of Kelley's
    cutting planes, 1960).  Fewer caps make a relaxation of the full program:
    an optimum that meets every left-out cap (j, l), sum_k W_{k,j}[l,l] <= q_j,
    is the full optimum, completed to its dual certificate by mu = 0 on those
    caps, and an infeasible subset makes the full program infeasible, with a
    zero multiplier on each left-out row of the ray.  An optimum that breaks a
    left-out cap, or that stops at reduced precision short of the solver's
    targets, gives way to the full program, so at most two programs are solved
    and the second is the one built with every cap.  (A further round for the
    broken caps alone costs about as much as the full program at desk scale,
    and their number grows where caps bind.)  Where the fixed point formed no
    beams, the first program already holds every cap.

    Raises InfeasibleProblemError when the relaxation (hence the original
    problem) is infeasible, with one certificate entry per QoS row and then
    per cap in antenna_caps order.  Raises NumericalFailureError when a
    relaxation solve fails or _finish cannot certify the repaired solution (it
    misses a target or a cap, or its cost lies beyond CERT_GAP of the relaxed
    optimum).
    """
    ch, hw = problem.channels, problem.hw
    K, T = ch.num_users, ch.num_transmitters
    exact, caps = _solve_uplink(problem)
    if exact is not None:
        return exact
    if not problem.active_transmitters():
        # The relaxation would hold only QoS rows, each reading 0 >= 1; a unit
        # multiplier on every row is its infeasibility ray.
        raise InfeasibleProblemError("QoS targets unattainable without any antenna",
                                     certificate=np.ones(len(problem.qos_users())))

    every_cap = antenna_caps(problem)
    while True:
        relax = build_relaxation(problem, caps)
        conic_sol = cs.solve(relax.conic)
        if conic_sol.status == cs.INFEASIBLE:
            rows = [*relax.qos_row.values(), *map(relax.power_row.get, every_cap)]
            raise InfeasibleProblemError(
                "QoS targets unattainable under the power constraints (exact relaxation infeasible)",
                certificate=np.array([0.0 if r is None else conic_sol.duals[r] for r in rows]))
        if conic_sol.status != cs.OPTIMAL:
            raise NumericalFailureError(
                f"relaxation solve ended with status {conic_sol.status}: {conic_sol.message}",
                {"primal": conic_sol.residual_primal, "dual": conic_sol.residual_dual,
                 "gap": conic_sol.residual_gap})
        W = [[conic_sol.block_values[relax.block_of[(k, j)]] if (k, j) in relax.block_of
              else np.zeros((ch.antennas(j),) * 2, dtype=complex) for j in range(T)]
             for k in range(K)]
        left_out = [(j, l) for j, l in every_cap if (j, l) not in caps]
        if not left_out or (_at_target_precision(conic_sol) and all(
                sum(W[k][j][l, l].real for k in range(K)) <= hw.per_antenna_limit[j]
                for j, l in left_out)):
            break
        caps = set(every_cap)

    solution = _finish(repair_rank(W, problem), problem,
                       objective_relaxation=conic_sol.primal_objective)

    lam = np.zeros(K)
    for k in problem.qos_users():
        lam[k] = max(conic_sol.duals[relax.qos_row[k]], 0.0)
    mu = [np.zeros(ch.antennas(j)) for j in range(T)]
    for (j, l), row in relax.power_row.items():
        mu[j][l] = max(conic_sol.duals[row], 0.0)
    return solution, DualCertificate(lam, mu)


def _finish(w: list, problem: CoordinationProblem, **meta) -> BeamformingSolution:
    """The certified solution for the beamformer stacks w of any solver.

    Residue: link (k, j) serves user k only when its own signal
    |h_{k,j}^H w_{k,j}|^2 exceeds SERVING_SHARE of the user's received own
    signal (evaluation.serving_links, as evaluate reports); every other link
    is zeroed in a copy of w, so the solution's powered links are its serving
    links.  One evaluate of the copy then gives the solution's power and its
    verdict: every SINR target within FEASIBILITY_TOL (so a drop that cost a
    target fails), every cap within power.CAP_TOL and, with a finite
    objective_relaxation (the certified bound), the dynamic power P within
    CERT_GAP * max(1, |P|, |bound|) of it.  Raises NumericalFailureError on a
    missed target or cap or a wider gap.
    """
    ch, gt = problem.channels, problem.gtilde
    K = ch.num_users
    keep = serving_links(link_gains(ch.H, w)[np.arange(K), np.arange(K)])
    w = [np.where(keep[:, j], w_j, 0.0) for j, w_j in enumerate(w)]
    report = evaluate(w, ch, problem.hw, problem.gamma)
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
    p_dyn = report.p_dynamic_mw
    solution = BeamformingSolution(w, p_dyn, report.p_static_mw, report.p_total_mw, **meta)
    bound = solution.objective_relaxation
    if not np.isnan(bound) and abs(p_dyn - bound) > cs.CERT_GAP * max(1.0, abs(p_dyn), abs(bound)):
        raise NumericalFailureError("solution cost strays from its certified bound",
                                    {"dynamic": p_dyn, "bound": bound})
    return solution


@dataclass
class DualityReport:
    residual: np.ndarray            # per-user relative residual (nan if skipped)
    max_residual: float
    skipped: tuple                  # users with no QoS row or no emitted power

    def ok(self) -> bool:
        return self.max_residual <= DUALITY_TOL


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
    K = ch.num_users
    # uAu[i, k] = u_k^H A_i u_k, uu[k] = u_k^H u_k and cap[k], the cap term of
    # u_k^H B_k u_k, for all users at once.
    uAu = link_gains(ch.H, solution.w).sum(axis=2)
    uu, cap = np.zeros(K), np.zeros(K)
    for j, w_j in enumerate(solution.w):
        power = np.abs(w_j) ** 2
        uu += hw.rho[j] * power.sum(axis=0)
        cap += mu[j] @ power
    uAu /= np.asarray(ch.sigma2, dtype=float)[:, None]
    qos = np.asarray(problem.gamma, dtype=float) > 0
    weighted = np.where(qos, lam, 0.0)[:, None] * uAu
    np.fill_diagonal(weighted, 0.0)                 # sum over users i != k
    uBu = uu + weighted.sum(axis=0) + cap
    served = qos & (uu > 0)
    k = np.flatnonzero(served)
    residual = np.full(K, np.nan)
    residual[k] = np.abs(lam[k] * uAu[k, k] / uBu[k] - gt[k]) / gt[k]
    return DualityReport(residual, float(np.max(residual[k], initial=0.0)),
                         tuple(int(i) for i in np.flatnonzero(~served)))


def serving_case(serving: tuple) -> str:
    """Case of a user served by the transmitters in `serving` (0 is the BS)."""
    if not serving:
        return UNSERVED
    if len(serving) > 1:
        return MULTIFLOW
    return BS_ONLY if serving[0] == 0 else SINGLE_SCA


def classify_assignment(solution: BeamformingSolution, hw: HardwareProfile) -> AssignmentReport:
    """Per-user serving case with the active power constraints licensing multiflow.

    A cap is active within power.CAP_TOL of its limit.  A
    multiflow user without any active constraint at a serving transmitter is
    reported as a consistency diagnostic (it signals solver inaccuracy or an
    eigenvalue-multiplicity corner), never as an error.
    """
    slacks = check_power_constraints(solution.w, hw)
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
