"""Power-minimal coordinated beamforming with dual certificates.

Fast path first (_solve_uplink).  With the per-antenna cap multipliers at
zero the dual of the semidefinite relaxation needs no PSD solve: its QoS
multipliers are the fixed point of a standard interference function.  By
uplink-downlink duality each user is then served by the one transmitter where
its dual row is tightest, along the direction the fixed point already
computed, and the powers that meet every target with equality solve one K x K
linear system.  Every round's multipliers are dual feasible, so their sum
bounds the optimum from below, and beams within every target and cap whose
cost meets that bound within the conic solver's certification gap are
optimal.

Cap ascent next (_cap_ascent), where the fast path's beams break some caps
but do not touch all of them.  The dual of the relaxation adds one multiplier
mu per cap, and its value g(mu) = sum lambda(mu) - sum mu q is the fixed
point at uplink noise rho_j I + diag mu_j, minus the priced caps.  The ascent
prices the one cap broken most: a one-dimensional search for the root of
g's slope, the cap's usage minus q (Yu and Lan, 2007; Dahrouj and Yu, 2010).
Where a user switches transmitter on the way, it stops at that user's tie and
splits the user's power over both links so that the cap binds: the multiflow
user that a binding cap licenses.  Every point it evaluates is dual feasible,
so its answer is checked against g like any other.

Relaxations last, for every case neither certifies (a second cap that binds,
infeasible targets, a cost left beyond the gap): build the relaxed
program in the per-link matrices W_{k,j} (one PSD block per served user and
transmitter), solve it with the conic engine, take every block to rank one in
closed form (repair_rank: w = W h / sqrt(h^H W h), which keeps every relaxed
row at no higher cost), and extract beamforming vectors and dual certificates.

The optimum promotes exclusive assignment, so almost every per-antenna cap is
slack there, and the relaxation first carries only the caps that matter (one
round of row generation, Kelley's cutting planes, 1960): the QoS rows and the
caps that the fast path's beams left active or violated.  Leaving caps out
relaxes the full program, so its optimum is a lower bound on the full one,
and an infeasible subset certifies an infeasible full program.  A seeded
answer that _finish refuses (it breaks a left-out cap, say), or a seeded
solve that does not end optimal, gives way to the full program, as does a
fast path that formed no beams: there the program holds every cap from the
start.

Each relaxation is solved in its transmitters' channel subspaces.  By
uplink-downlink duality every optimal beam of transmitter j lies in S_j =
span(h_{1,j}, ..., h_{K,j}, e_l for each cap (j, l) the program holds), so each
block is Q_j X Q_j^H over an orthonormal basis Q_j of S_j, with no loss (a face
of the PSD cone; facial reduction, Borwein and Wolkowicz 1981).  A seeded
program's BS blocks shrink from n_j x n_j to about K x K; the full program
holds every cap, so its S_j is the whole space and its blocks stay full.
repair_rank reads each solved block in these coordinates.

Every candidate runs the uplink interference map, with uplink noise
rho_j I + diag mu_j (_uplink_round): to its fixed point at mu = 0 on the fast
path and at each mu the ascent evaluates (one loop, _solve_uplink, and one
beam-forming routine, _form_beams), and once at the IPM's (lambda, mu) for a
relaxation's certificate, since the IPM bounds each multiplier's error only
relative to the largest.

Each candidate answer thus comes with its own lower bound on the full
program, and, as for the rzf heuristic, _finish is the one place where beams
become a solution: it alone zeroes residue (links below SERVING_SHARE of their
user's signal), and one evaluate of the result gives the power reported,
verifies every target and cap, and lets _finish refuse a cost beyond CERT_GAP
of the candidate's bound (sum lambda on the fast path, g on the ascent, the
relaxed optimum on a relaxation).

The relaxation is exact: a rank-one optimal solution always exists, so an
infeasible relaxation certifies infeasibility of the original problem and the
repaired rank-one objective matches the relaxed optimum to solver accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg as la

from . import conic_solver as cs
from .conic_problem import PSD, Block, ConicProblem
from .evaluation import evaluate, link_gains, link_powers, serving_links, serving_sets
from .exceptions import InfeasibleProblemError, InvalidInputError, NumericalFailureError
# check_power_constraints is not called here, but perfbench/tracing.py traces it
# under this module's name.
from .power import HardwareProfile, cap_usage, check_power_constraints  # noqa: F401
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
    """A relaxed program and where its blocks and rows sit.  Block (k, j)
    holds X with W_{k,j} = Q_j X Q_j^H for Q_j = basis[j]."""

    conic: ConicProblem
    block_of: dict                  # (k, j) -> PSD block index
    qos_row: dict                   # k -> constraint index
    power_row: dict                 # (j, l) -> constraint index
    basis: dict                     # j -> (n_j, r_j) orthonormal Q_j


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


def channel_subspace(H: np.ndarray, antennas) -> np.ndarray:
    """Orthonormal basis Q (n x r) of S = span(columns of H, e_l for l in
    antennas), the identity where S is the whole space (r = n).

    The columns are scaled to unit norm and go through a column-pivoted QR;
    the rank r counts the |R_ii| above max|R_ii| * max(shape) * eps, the cutoff
    numpy.linalg.matrix_rank applies to singular values.  Where no column is
    nonzero, Q keeps one direction (the blocks there are zero at the optimum).
    With the identity, every product with Q is exact, so the blocks of a whole
    space are built and repaired bitwise as full n x n blocks.
    """
    n = H.shape[0]
    A = np.hstack([H, np.eye(n)[:, antennas]])
    norm = np.linalg.norm(A, axis=0)
    Q, R, _ = la.qr(A / np.where(norm > 0.0, norm, 1.0), mode="economic", pivoting=True)
    d = np.abs(np.diag(R))
    r = max(np.count_nonzero(d > d.max(initial=0.0) * max(A.shape) * np.finfo(float).eps), 1)
    return np.eye(n, dtype=complex) if r >= n else Q[:, :r]


def build_relaxation(problem: CoordinationProblem, caps: set) -> Relaxation:
    """Relaxed program: one PSD block per (QoS user, active transmitter).

    Objective sum_j rho_j sum_k tr W_{k,j}; QoS row of user k reads
    sum_j h_{k,j}^H [(1 + 1/gt_k) W_{k,j} - sum_i W_{i,j}] h_{k,j} >= sigma_k^2,
    whose own-block coefficient collapses to (1/gt_k) h h^H; per-antenna rows
    cap sum_k W_{k,j}[l,l] for each cap (j, l) of antenna_caps in the set caps,
    in that order.  Users with gamma = 0 carry no variables (their optimal
    blocks are zero).  Static power is not part of the program.

    Block (k, j) holds X with W_{k,j} = Q_j X Q_j^H, for Q_j the
    channel_subspace of the QoS users' channels and the held caps' antennas
    at j (the identity where that is the whole space, as in the full
    program).  With P the projector onto it, P W P keeps every row (P h = h,
    P e_l = e_l) at no higher trace, so nothing is lost.  The QoS coefficients
    read Q^H h, cap (j, l) reads c c^H with c = Q^H e_l (row l of Q_j,
    conjugated), and the objective stays rho_j I, since tr(Q X Q^H) = tr X.
    """
    ch, gt = problem.channels, problem.gtilde
    users = problem.qos_users()
    txs = problem.active_transmitters()
    if any(gt[k] <= 0 for k in users):
        raise InvalidInputError("QoS row requested with nonpositive SINR target")
    held = [(j, l) for j, l in antenna_caps(problem) if (j, l) in caps]
    basis = {j: channel_subspace(ch.H[j][:, users], [l for t, l in held if t == j]) for j in txs}
    dim = {j: basis[j].shape[1] for j in txs}

    blocks, block_of = [], {}
    for k in users:
        for j in txs:
            block_of[(k, j)] = len(blocks)
            blocks.append(Block(PSD, dim[j]))
    conic = ConicProblem(blocks)
    conic.set_objective({block_of[(k, j)]: problem.hw.rho[j] * np.eye(dim[j], dtype=complex)
                         for k in users for j in txs})

    # QoS rows are stated per unit of noise power (both sides divided by
    # sigma_k^2): coefficients land within a few orders of unity and the row
    # multiplier is exactly the lambda_k of the duality certificate.
    qos_row = {}
    for k in users:
        coeffs = {}
        for j in txs:
            h = basis[j].conj().T @ ch.H[j][:, k]
            hh = np.outer(h, h.conj()) / float(ch.sigma2[k])
            # One interference coefficient shared by every other user's block,
            # symmetrized here as ConicProblem would symmetrize each copy.
            interference = 0.5 * (-hh - hh.conj().T)
            for i in users:
                coeffs[block_of[(i, j)]] = ((1.0 / gt[k]) * hh if i == k else interference)
        qos_row[k] = conic.add_constraint(coeffs, ">=", 1.0)

    power_row = {}
    for j, l in held:
        c = basis[j][l].conj()
        Q = np.outer(c, c.conj())
        power_row[(j, l)] = conic.add_constraint(
            {block_of[(k, j)]: Q for k in users}, "<=", problem.hw.per_antenna_limit[j])
    return Relaxation(conic, block_of, qos_row, power_row, basis)


def repair_rank(relax: Relaxation, blocks: list, problem: CoordinationProblem) -> list:
    """Beamformer stacks w[j] whose rank-one blocks w_{k,j} w_{k,j}^H (column
    k of w[j]) keep every row of relax that its solved blocks satisfy (blocks[b]
    for block b), at no higher cost.

    Column k of w[j] is W h / sqrt(h^H W h) for W = W_{k,j} and h = h_{k,j},
    whatever the rank of W.  By Cauchy-Schwarz in the inner product W,
    |x^H W h|^2 <= (x^H W x)(h^H W h) for every x, so w w^H <= W: no antenna
    power, no trace and no other user's gain grows, while the own signal
    h^H w w^H h = h^H W h is kept.  For W = Q X Q^H it is Q (X c)/sqrt(c^H X c)
    with c = Q^H h.  A block with no own signal is left at zero; every other
    is repaired, and _finish drops what is residue (a block below
    SERVING_SHARE of its user's signal repairs to a beam below it).
    """
    ch = problem.channels
    w = [np.zeros((n, ch.num_users), dtype=complex) for n in ch.antenna_counts]
    for (k, j), b in relax.block_of.items():
        Q = relax.basis[j]
        c = Q.conj().T @ ch.H[j][:, k]
        Xc = blocks[b] @ c
        own = float(np.real(c.conj() @ Xc))
        if own <= 0.0:
            continue
        w[j][:, k] = Q @ Xc / np.sqrt(own)
    return w


def scaled_channels(channels: ChannelSet, txs: list) -> tuple[list, np.ndarray]:
    """Noise-scaled stacks G_t = H_t / sigma (column k over sigma_k) of the
    transmitters txs, and the (T, K, K) stack of their Grams G_t^H G_t."""
    K = channels.num_users
    G = [channels.H[j] / np.sqrt(np.asarray(channels.sigma2, dtype=float)) for j in txs]
    return G, np.array([G_t.conj().T @ G_t for G_t in G], dtype=complex).reshape(len(G), K, K)


def regularized_inverse(gram: np.ndarray, a, r) -> np.ndarray:
    """Y[t] = (diag(a) gram[t] + r[t] I)^{-1} for a (T, K, K) stack of Grams
    gram[t] = G_t^H G_t, in one batched K x K inverse.

    By the push-through identity (G diag(a) G^H + r I)^{-1} G = G Y, column k
    of G_t Y[t] is the regularized direction of user k at transmitter t, and
    (gram[t] Y[t])[k, k] is its quadratic form g_k^H (G diag(a) G^H + r I)^{-1} g_k,
    whatever the antenna count n_t.  Both solvers take their directions from it.
    a is a scalar or one weight per user, r a scalar or one per transmitter;
    the system is formed by broadcasting against an identity shared per K.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 1)
    r = np.asarray(r, dtype=float).reshape(-1, 1, 1)
    return np.linalg.inv(a * gram + r * _identity(gram.shape[-1]))


@lru_cache(maxsize=None)
def _identity(K: int) -> np.ndarray:
    """The K x K identity, computed once per K and shared read-only."""
    eye = np.eye(K)
    eye.flags.writeable = False
    return eye


def _uplink_grams(problem: CoordinationProblem, mu: list) -> tuple[list, np.ndarray]:
    """Noise-scaled stacks G_t = H_t / sigma of the active transmitters and the
    (T, K, K) stack F_t = G_t^H D_t^-1 G_t of the uplink noise
    D_t = rho_t I + diag mu_t (mu[j] over the antennas of transmitter j)."""
    txs, K = problem.active_transmitters(), problem.channels.num_users
    G, _ = scaled_channels(problem.channels, txs)
    F = [G_t.conj().T @ (G_t / (problem.hw.rho[j] + mu[j])[:, None]) for j, G_t in zip(txs, G)]
    return G, np.array(F, dtype=complex).reshape(len(G), K, K)


def _uplink_round(problem: CoordinationProblem, lam: np.ndarray, F: np.ndarray):
    """One round of the uplink interference map at the QoS users' lambda over
    F = _uplink_grams(problem, mu)[1]: (lambda', Y, gain), or None where a QoS
    user has no positive gain.  lambda'_k = gt_k / max_t gain[k, t] (0 without
    a target), gain[k, t] = g^H B^-1 g for g = h_kt / sigma_k and
    B = D_t + sum_{i != k} lambda_i g_it g_it^H.  By the push-through identity
    (D + G L G^H)^-1 G = D^-1 G (L F + I)^-1, Y = regularized_inverse(F, lambda, 1)
    gives C_t^-1 G_t = D_t^-1 G_t Y[t] for C = B + lambda_k g g^H, x = g^H C^-1 g
    is the diagonal of F Y, and by Sherman-Morrison g^H B^-1 g = x / (1 - lambda_k x).
    """
    users = problem.qos_users()
    Y = regularized_inverse(F, lam, 1.0)
    x = np.einsum("tki,tik->kt", F, Y).real
    gain = x / (1.0 - lam[:, None] * x)
    best = gain[users].max(axis=1, initial=0.0)     # 0 without any active transmitter
    if np.any(best <= 0.0):
        return None
    new = np.zeros_like(lam)
    new[users] = problem.gtilde[users] / best
    return new, Y, gain


class _UplinkPoint(NamedTuple):
    """The uplink fixed point at cap multipliers mu (mu[j] over the antennas
    of transmitter j): its lambda, the noise-scaled stacks G, the last round's
    Y and gain, and the beams w formed from them."""

    mu: list
    lam: np.ndarray
    G: list
    Y: np.ndarray
    gain: np.ndarray
    w: list


def _solve_uplink(problem: CoordinationProblem, mu: list | None = None,
                  lam: np.ndarray | None = None) -> _UplinkPoint | None:
    """The uplink fixed point at cap multipliers mu (0 by default) and its beams,
    or None where no beams are formed.  At mu = 0 it is the first candidate
    answer of solve_optimal; each step of the cap ascent is one more.

    The dual of the relaxation is

        max sum_k lambda_k - sum_{j,l} mu_jl q_j  s.t.
            lambda_k h_kj^H B_kj^-1 h_kj / sigma_k^2 <= gt_k  for all j,
        B_kj = D_j + sum_{i != k} lambda_i h_ij h_ij^H / sigma_i^2,  D_j = rho_j I + diag mu_j,

    and at fixed mu its optimum is the fixed point of the standard interference
    function lambda_k <- gt_k sigma_k^2 / max_j h_kj^H B_kj^-1 h_kj, iterated
    here by _uplink_round over Grams formed once.  From lambda = 0, or from the
    fixed point at any mu' <= mu (the fixed point rises with the uplink noise),
    the iterates rise monotonically and each is dual feasible, whatever the
    caps, so sum lambda - sum mu q bounds the full program from below.

    Where lambda has not settled within UPLINK_MAX_ITERS, the last round's
    beams are formed all the same: its lambda is still dual feasible.  No
    beams are formed where a QoS user has no positive gain, or sum lambda
    exceeds the weighted power sum_{j,l} (rho_j + mu_jl) q_j of every antenna
    at its cap (no feasible point costs that much, so the targets are
    infeasible), or _form_beams finds no powers.
    """
    ch, hw = problem.channels, problem.hw
    txs = problem.active_transmitters()
    mu = [np.zeros(n) for n in ch.antenna_counts] if mu is None else mu
    lam = np.zeros(ch.num_users) if lam is None else lam
    G, F = _uplink_grams(problem, mu)
    ceiling = sum(hw.rho[j] * ch.antennas(j) * hw.per_antenna_limit[j] for j in txs)
    ceiling += sum(hw.per_antenna_limit[j] * mu[j].sum() for j in txs)
    for _ in range(UPLINK_MAX_ITERS):
        step = _uplink_round(problem, lam, F)
        if step is None:
            return None
        new, Y, gain = step
        if not (np.all(np.isfinite(new)) and new.sum() <= ceiling):
            return None
        settled = np.all(new - lam <= UPLINK_TOL * new)
        lam = new
        if settled:
            break
    w = _form_beams(problem, mu, G, Y, gain)
    return None if w is None else _UplinkPoint(mu, lam, G, Y, gain, w)


def _form_beams(problem: CoordinationProblem, mu: list, G: list, Y: np.ndarray,
                gain: np.ndarray, split: tuple | None = None) -> list | None:
    """Beamformer stacks along the directions of one uplink round at cap
    multipliers mu, with the powers that meet every target with equality, or
    None where those powers are not all finite and nonnegative.

    By uplink-downlink duality user k's beam at transmitter t is parallel to
    C_t^-1 h_kt = D_t^-1 G_t Y[t][:, k], and by complementary slackness only
    a transmitter whose dual row is tight may serve k; user k takes the one
    with the largest gain[k, t], and only that direction is formed.  With
    unit directions u_c and gains g[i, c] = |h_{i,t_c}^H u_c|^2 of each link
    c = (k_c, t_c), the powers solve M p = sigma^2 over the QoS users, with
    M[i, c] = g[i, c] / gt_i on user i's own links and -g[i, c] on the others'.

    split = (k, t, (j, l)) adds a second link of user k, at transmitter t
    (an index into the active transmitters), and the row that meets cap
    (j, l) with equality: at a tie between two transmitters, both dual rows of
    k are tight, and the binding cap sets how k's power splits between them
    (the (K+1) x (K+1) system of a multiflow user).
    """
    ch, hw, gt = problem.channels, problem.hw, problem.gtilde
    K, T = ch.num_users, ch.num_transmitters
    users, txs = problem.qos_users(), problem.active_transmitters()
    links = [(k, int(np.argmax(gain[k]))) for k in users]
    if split is not None:
        links.append(split[:2])
    U = [np.zeros((ch.antennas(j), K), dtype=complex) for j in range(T)]
    for k, t in links:
        j = txs[t]
        u = G[t] @ Y[t][:, k] / (1.0 + mu[j] / hw.rho[j])
        U[j][:, k] = u / np.linalg.norm(u)
    k_of = [k for k, _ in links]
    j_of = [txs[t] for _, t in links]
    rows = np.array(users, dtype=int)[:, None]
    g = link_gains(ch.H, U)[rows, k_of, j_of]
    M = np.where(rows == k_of, g / gt[rows], -g)
    rhs = np.asarray(ch.sigma2, dtype=float)[users]
    if split is not None:
        j, l = split[2]
        cap_row = [abs(U[j_c][l, k_c]) ** 2 if j_c == j else 0.0 for k_c, j_c in zip(k_of, j_of)]
        M, rhs = np.vstack([M, cap_row]), np.append(rhs, hw.per_antenna_limit[j])
    try:
        p = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(p) & (p >= 0.0)):
        return None
    amplitude = np.zeros((T, K))
    amplitude[j_of, k_of] = np.sqrt(p)
    return [U_j * amplitude[j] for j, U_j in enumerate(U)]


def solve_optimal(problem: CoordinationProblem) -> tuple[BeamformingSolution, DualCertificate]:
    """Exact minimum-power coordination with dual certificates: the first
    candidate answer that _finish accepts against its own lower bound.

    The candidates (_candidates) come in order: the fast path, the uplink
    fixed point's beams against sum lambda; the cap ascent (_cap_ascent) on
    the one cap those beams break most, against g(mu) = sum lambda - mu q; the
    relaxation seeded with the caps the fast path's beams leave active or
    violated (one round of Kelley's cutting planes, 1960), its blocks taken to
    rank one by repair_rank, against its optimum; and the full relaxation,
    with every cap, against its optimum.  Each bound is valid for the full
    program: every round's lambda at any mu >= 0 is dual feasible, and
    leaving caps out relaxes the program.  So an answer within every target
    and cap and within CERT_GAP of its bound is optimal, and _finish is the
    only test.  A refused candidate, an ascent that forms none, or a seeded
    solve that does not end optimal, gives way to the next; where the fixed
    point formed no beams, or its beams touch every cap, neither the ascent
    nor a seeded program runs and the first relaxation is the full one.

    Raises InfeasibleProblemError when a relaxation (hence the original
    problem) is infeasible, with one certificate entry per QoS row and then
    per cap in antenna_caps order (zero on a cap the seeded program left out).
    Raises NumericalFailureError when the full relaxation's solve fails or
    _finish refuses its repaired beams (a missed target or cap, or a cost
    beyond CERT_GAP of the relaxed optimum).
    """
    for w, bound, certificate in _candidates(problem):
        try:
            return _finish(w, problem, objective_relaxation=bound), certificate
        except NumericalFailureError as refusal:
            error = refusal
    raise error


def _candidates(problem: CoordinationProblem):
    """The candidate answers (w, bound, certificate) of solve_optimal, each
    formed only once the one before it has been refused: fast path, cap
    ascent, seeded relaxation, full relaxation.  The ascent runs only where
    the fast path's beams touch some caps but not all; where they touch none
    (a fast path refused on its gap alone), the seeded program holds only
    the QoS rows."""
    ch = problem.channels
    every_cap = set(antenna_caps(problem))
    programs = [every_cap]
    fast = _solve_uplink(problem)
    if fast is not None:
        yield fast.w, float(fast.lam.sum()), DualCertificate(fast.lam, fast.mu)
        seed = binding_caps(fast.w, problem.hw)
        if seed != every_cap:
            programs = [seed, every_cap]
            ascent = _cap_ascent(problem, fast, seed) if seed else None
            if ascent is not None:
                yield ascent
    if not problem.active_transmitters():
        # The relaxation would hold only QoS rows, each reading 0 >= 1; a unit
        # multiplier on every row is its infeasibility ray.
        raise InfeasibleProblemError("QoS targets unattainable without any antenna",
                                     certificate=np.ones(len(problem.qos_users())))

    for caps in programs:
        relax = build_relaxation(problem, caps)
        conic_sol = cs.solve(relax.conic)
        if conic_sol.status == cs.INFEASIBLE:
            rows = [*relax.qos_row.values(), *map(relax.power_row.get, antenna_caps(problem))]
            raise InfeasibleProblemError(
                "QoS targets unattainable under the power constraints (exact relaxation infeasible)",
                certificate=np.array([0.0 if r is None else conic_sol.duals[r] for r in rows]))
        if conic_sol.status != cs.OPTIMAL:
            if caps is not every_cap:
                continue
            raise NumericalFailureError(
                f"relaxation solve ended with status {conic_sol.status}: {conic_sol.message}",
                {"primal": conic_sol.residual_primal, "dual": conic_sol.residual_dual,
                 "gap": conic_sol.residual_gap})
        lam = np.zeros(ch.num_users)
        for k in problem.qos_users():
            lam[k] = max(conic_sol.duals[relax.qos_row[k]], 0.0)
        mu = [np.zeros(n) for n in ch.antenna_counts]
        for (j, l), row in relax.power_row.items():
            mu[j][l] = max(conic_sol.duals[row], 0.0)
        lam, _, _ = _uplink_round(problem, lam, _uplink_grams(problem, mu)[1])
        yield (repair_rank(relax, conic_sol.block_values, problem), conic_sol.primal_objective,
               DualCertificate(lam, mu))


def _cap_ascent(problem: CoordinationProblem, fast: _UplinkPoint, seed: set):
    """The cap ascent's candidate (w, bound, certificate), or None where it
    forms none; fast is the refused fast path, whose beams break or meet the
    caps in seed.

    It maximizes the dual g(mu) = sum lambda(mu) - mu q over the multiplier mu
    of one cap (j, l), the seeded cap with the largest used / q, all others at
    0.  g is concave, and by Danskin's theorem its slope is the cap's usage by
    the beams of _solve_uplink at mu, minus q: positive at mu = 0 where the
    beams break the cap.  The search runs in x = log(1 + mu / rho_j).  It
    doubles x from log 2 until the slope turns nonpositive, then shrinks the
    bracket [lo, hi] (slope positive at lo, not at hi) by Brent's method
    (1973): inverse quadratic or secant steps through the points evaluated,
    and the midpoint wherever such a step leaves the bracket or shrinks the
    last step by less than half.  Each evaluation starts warm from lambda at
    lo, below the fixed point it seeks, so its every round is dual feasible.

    Where one user is served from transmitter a at lo and b at hi, the slope
    jumps between them, and the steps follow that user's tie
    log(gain_a / gain_b) = 0 instead, a smooth function of mu; where several
    users switch, the search bisects.  It stops once the last point's slope
    is within UPLINK_TOL * q of zero, or its tie within UPLINK_TOL, or the
    bracket no longer shrinks in floating point.  The answer is formed at the
    end of the bracket nearer that root, against the larger g of the two ends:
    the beams of _solve_uplink there, or at a tie both of the user's links,
    with powers that meet the cap with equality (_form_beams' split).

    None where a zero cap leads (its root lies at mu = infinity), an
    evaluation forms no beams (with the targets out of reach of the cap,
    sum lambda passes the ceiling of _solve_uplink), or the bracket closes
    with several users switching.
    """
    ch, hw = problem.channels, problem.hw
    users = problem.qos_users()
    used = [u for u, _, _, _ in cap_usage(fast.w, hw)]
    j, l = max(sorted(seed), key=lambda c: used[c[0]][c[1]] / hw.per_antenna_limit[c[0]]
               if hw.per_antenna_limit[c[0]] > 0 else np.inf)
    q, rho = hw.per_antenna_limit[j], hw.rho[j]
    if not (q > 0 and used[j][l] > q):
        return None

    def slope(point):
        return float(np.sum(np.abs(point.w[j][l]) ** 2)) - q

    def bound(point):
        return float(point.lam.sum() - point.mu[j][l] * q)

    def at(x, lam):
        mu = [np.zeros(n) for n in ch.antenna_counts]
        mu[j][l] = rho * np.expm1(x)
        return _solve_uplink(problem, mu, lam)

    lo, x_lo, x_hi = fast, 0.0, float(np.log(2.0))
    while (hi := at(x_hi, lo.lam)) is not None and slope(hi) > 0.0:
        lo, x_lo, x_hi = hi, x_hi, 2.0 * x_hi
    if hi is None:
        return None

    track = None
    while True:
        served_lo, served_hi = lo.gain[users].argmax(axis=1), hi.gain[users].argmax(axis=1)
        moved = np.flatnonzero(served_lo != served_hi)
        if len(moved) == 1:
            k = users[moved[0]]
            key, tol = (k, int(served_lo[moved[0]]), int(served_hi[moved[0]])), UPLINK_TOL

            def f(point, k=k, a=key[1], b=key[2]):
                return float(np.log(point.gain[k, a] / point.gain[k, b]))
        else:
            key, f, tol = ((), slope, UPLINK_TOL * q) if len(moved) == 0 else (None, None, None)
        if key != track:
            track, seen = key, [(x_lo, f(lo)), (x_hi, f(hi))] if f else []
        elif f and abs(seen[-1][1]) <= tol:
            break
        x = _root_estimate(seen) if f else np.nan
        if not (x_lo < x < x_hi and (len(seen) < 3 or abs(x - seen[-1][0])
                                      < 0.5 * abs(seen[-2][0] - seen[-3][0]))):
            x = 0.5 * (x_lo + x_hi)
            if not x_lo < x < x_hi:
                break
        point = at(x, lo.lam)
        if point is None:
            return None
        if f:
            seen.append((x, f(point)))
        if slope(point) > 0.0:
            lo, x_lo = point, x
        else:
            hi, x_hi = point, x

    if track is None:
        return None
    end = lo if abs(f(lo)) <= abs(f(hi)) else hi
    w = end.w
    if track:
        k, a, b = track
        w = _form_beams(problem, end.mu, end.G, end.Y, end.gain, (k, b if end is lo else a, (j, l)))
        if w is None:
            return None
    return w, max(bound(lo), bound(hi)), DualCertificate(end.lam, end.mu)


def _root_estimate(seen: list) -> float:
    """The root of the inverse quadratic through the last three points
    (x, f(x)) of seen where their values differ, else of the secant through
    the last two, nan where those have one value."""
    (b, fb), (c, fc) = seen[-2:]
    if len(seen) > 2:
        a, fa = seen[-3]
        if fa != fb and fa != fc and fb != fc:
            return (a * fb * fc / ((fa - fb) * (fa - fc)) + b * fa * fc / ((fb - fa) * (fb - fc))
                    + c * fa * fb / ((fc - fa) * (fc - fb)))
    return c - fc * (c - b) / (fc - fb) if fc != fb else np.nan


def binding_caps(w: list, hw: HardwareProfile) -> set:
    """The caps (j, l) that the beams w meet within power.CAP_TOL or break."""
    return {(j, int(l)) for j, (_, _, active, violated) in enumerate(cap_usage(w, hw))
            for l in np.flatnonzero(active | violated)}


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
    active = binding_caps(solution.w, hw)
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
