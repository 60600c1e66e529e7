"""Dense primal-dual interior-point solver for mixed nonnegative/PSD conic programs.

The engine solves the standard form of :mod:`softcell.conic_problem` via a
homogeneous self-dual embedding with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step.  Complex Hermitian PSD blocks are handled natively
in complex arithmetic; a d x d Hermitian block occupies d^2 real coordinates
under the isometric vectorization below; a 1 x 1 block, the same cone as a
nonnegative scalar, is solved as one orthant coordinate.  Every row is an
inequality and gets its own slack coordinate.  Infeasible problems are certified through the
embedding (tau -> 0) by a dual improving ray rather than guessed from
divergence; the programs this package builds are bounded below on their
feasible sets, so an unbounded problem ends as a numerical failure.

End-game.  Near the optimum the Schur complement M = A H A^T can reach a
condition number near 1e15, and directions computed through it miss their own
linearized equations by far more than the iterate's residuals.  The step to
the cone boundary then collapses.  After the first step shorter than
_ENDGAME_STEP, each direction is therefore recomputed from its (dy, dtau):
dz from the dual row, dx = v - H dz from the scaled complementarity row, and
dkappa from the kappa row, so those hold to roundoff.  (dy, dtau) is then
refined against the primal and gap rows evaluated with A and H themselves,
reusing the factorization of M, and a correction is kept only when it lowers
the error.  Solves that never take such a short step are unchanged.  When the
best iterate meets the certification bounds CERT_FEAS/CERT_GAP and its
residual measure has not halved over the last _STALL_WINDOW iterations, the
loop stops and returns it as an optimum of reduced precision; an iterate that
does not meet the bounds is never returned as optimal.

Blocks stacked by size.  The PSD blocks of one size d are one (B, d, d) stack
(_StandardForm.psd_groups holds their (B, d^2) coordinate indices), so NT
scaling, the H operator, the scaled steps, the step length and the corrector
make one batched LAPACK or matmul call per distinct size, in each block's own
order of arithmetic, so the iterates are bitwise those of a per-block loop.
x and z share one smat per size, as do a direction's two steps, whose scaled
steps are one (2, B, d, d) stack read by one eigvalsh and by the corrector.
Outside the end-game an iteration applies H five times (to c, to A'y1, once
to r_D for both directions, once per Newton solve) and scales each direction
once.  X and Z are factored by one Cholesky call each; only blocks whose
factor fails take the clamped eigh.  svec and smat are one gather each, and
the normal equations go to LAPACK's potrf/potrs without scipy's wrappers.

Schur complement from rank-one terms.  Each stored PSD coefficient is
factored once by eigh, keeping the eigenpairs above numpy's matrix_rank cutoff
(|w| > max|w| d eps), so a row reads sum_t s_t f_t f_t^H on a block, with its
sense and scales folded into s_t.  M = A H A^T is then (A_nn w^2) A_nn^T plus,
per size group, s_p s_q |f_p^H W f_q|^2 scattered to the rows of its terms
(DSDP's rank-one technique); H itself is applied only to single vectors.

Design targets: dense block sizes up to a few hundred, residuals certified per
row relative to the summed coefficient magnitudes, determinism for a fixed
problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .conic_problem import NONNEG, ConicProblem
from .exceptions import InvalidInputError

SQRT2 = np.sqrt(2.0)

# Certification bounds: a solution may only be reported optimal when the
# scaled residuals clear these, regardless of the (tighter) target tolerances.
CERT_FEAS = 1e-8
CERT_GAP = 1e-6

# Targets, tighter than the certification bounds.  A solve that stalls short
# of them stops once its best iterate meets the bounds and returns that
# iterate ("reduced precision" in the message).
TOL_FEAS = 1e-9         # target primal/dual residual on scaled data
TOL_GAP = 1e-8          # target relative complementarity gap
TOL_INFEAS = 1e-9       # certificate quality for infeasible
STEP_FRACTION = 0.99    # fraction-to-boundary
MAX_ITERS = 200         # a solve that reaches it ends as a numerical failure

# End-game of the interior-point loop (see the module docstring): refinement
# starts after the first step shorter than _ENDGAME_STEP and makes up to
# _REFINE_STEPS corrections per direction; the stall exit looks back
# _STALL_WINDOW iterations.
_ENDGAME_STEP = 1e-2
_REFINE_STEPS = 3
_STALL_WINDOW = 5

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class ConicSolution:
    status: str
    block_values: list | None       # per-block primal values (None unless optimal)
    duals: np.ndarray | None        # per-row multipliers, >= 0 (certificate if infeasible)
    primal_objective: float
    dual_objective: float
    iterations: int
    residual_primal: float          # on unit-scaled data
    residual_dual: float
    residual_gap: float             # relative
    message: str


# ---------------------------------------------------------------------------
# Hermitian vectorization: isometry between (C^{dxd}, Hermitian, tr(XY)) and
# (R^{d^2}, dot).  Layout: d diagonal entries, then per upper-triangle entry
# (row-major) sqrt(2)*Re and sqrt(2)*Im.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _vec_index(d: int) -> tuple:
    """The two gathers of the vectorization, computed once per d and shared
    read-only by every call: svec's positions in the float view of a
    row-major complex d x d matrix (each real diagonal entry, then Re and Im
    of each strict upper entry), and smat's positions in [diag, off,
    conj(off)] of each row-major entry."""
    iu, ju = np.triu_indices(d, 1)
    upper, lower = iu * d + ju, ju * d + iu
    diag, k = np.arange(d), np.arange(len(iu))
    gather = np.empty(d * d, dtype=np.intp)
    gather[:d] = 2 * diag * (d + 1)
    gather[d::2] = 2 * upper
    gather[d + 1::2] = 2 * upper + 1
    scatter = np.empty(d * d, dtype=np.intp)
    scatter[diag * (d + 1)] = diag
    scatter[upper] = d + k
    scatter[lower] = d + len(k) + k
    for idx in (gather, scatter):
        idx.flags.writeable = False
    return gather, scatter


def svec(X: np.ndarray) -> np.ndarray:
    """Vectorize a Hermitian matrix (d, d), or a stack (..., d, d), to (..., d^2)."""
    d = X.shape[-1]
    flat = np.ascontiguousarray(X, dtype=complex).view(float)
    out = flat.reshape(X.shape[:-2] + (2 * d * d,)).take(_vec_index(d)[0], axis=-1)
    out[..., d:] *= SQRT2
    return out


def smat(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of svec: (..., d^2) -> (..., d, d)."""
    off = (v[..., d::2] + 1j * v[..., d + 1::2]) / SQRT2
    X = np.concatenate((v[..., :d], off, off.conj()), axis=-1).take(_vec_index(d)[1], axis=-1)
    return X.reshape(v.shape[:-1] + (d, d))


# ---------------------------------------------------------------------------
# Standard-form assembly and scaling
# ---------------------------------------------------------------------------

@dataclass
class _StandardForm:
    A: np.ndarray                  # (m, n) scaled equality matrix, slacks included
    b: np.ndarray                  # (m,) scaled rhs
    c: np.ndarray                  # (n,) scaled objective
    nn_idx: np.ndarray             # orthant coordinate indices
    A_nn: np.ndarray               # A[:, nn_idx]
    psd_groups: list               # (d, (B, d^2) coordinate indices) per distinct block size d
    psd_terms: list                # per size group: factors F (B, d, t), weights s (B, t), rows (B, t)
    block_slices: list             # slice per user block into the coordinate vector
    row_scale: np.ndarray          # y_orig = obj_scale * row_scale * y_scaled
    col_scale: np.ndarray          # x_orig = col_scale * x_scaled
    obj_scale: float
    nu: int                        # total cone degree


def _standard_form(problem: ConicProblem) -> _StandardForm:
    m = len(problem.constraints)

    nn_idx, psd_blocks, block_slices = [], [], []
    pos = 0
    for bidx, blk in enumerate(problem.blocks):
        block_slices.append(slice(pos, pos + blk.svec_dim))
        if blk.kind == NONNEG or blk.dim == 1:
            nn_idx.extend(range(pos, pos + blk.svec_dim))
        else:
            psd_blocks.append((pos, blk.dim, bidx))
        pos += blk.svec_dim
    slack_off = pos
    nn_idx.extend(range(pos, pos + m))
    n = pos + m

    def vectorize(coeffs: dict[int, np.ndarray]) -> np.ndarray:
        row = np.zeros(n)
        for bidx, entry in coeffs.items():
            sl = block_slices[bidx]
            row[sl] = entry if problem.blocks[bidx].kind == NONNEG else svec(entry)
        return row

    c = vectorize(problem.objective)
    A = np.zeros((m, n))
    b = np.zeros(m)
    for i, con in enumerate(problem.constraints):
        row, rhs = vectorize(con.coeffs), con.rhs
        if con.sense == ">=":
            row, rhs = -row, -rhs
        A[i], b[i] = row, rhs
        A[i, slack_off + i] = 1.0

    # Ruiz equilibration.  Orthant coordinates scale independently (the cone is
    # invariant per coordinate); each PSD block gets a single scalar so the
    # cone is preserved.  Row norms include the rhs so |b| stays bounded by 1;
    # no further per-row rhs normalization (that would reinflate rows whose
    # rhs is orders below the coefficients).
    col_scale = np.ones(n)
    row_scale = np.ones(m)
    nn_arr = np.asarray(nn_idx, dtype=int)
    for _ in range(6):
        if nn_arr.size:
            nb = np.abs(A[:, nn_arr]).max(axis=0)
            d = np.where(nb > 0, 1.0 / np.sqrt(np.where(nb > 0, nb, 1.0)), 1.0)
            A[:, nn_arr] *= d
            col_scale[nn_arr] *= d
        for off, dim, _ in psd_blocks:
            sl = slice(off, off + dim * dim)
            nb = np.abs(A[:, sl]).max()
            if nb > 0:
                d = 1.0 / np.sqrt(nb)
                A[:, sl] *= d
                col_scale[sl] *= d
        nr = np.maximum(np.abs(A).max(axis=1), np.abs(b))
        d = np.where(nr > 0, 1.0 / np.sqrt(np.where(nr > 0, nr, 1.0)), 1.0)
        A *= d[:, None]
        b *= d
        row_scale *= d
    c = c * col_scale
    obj_scale = max(1.0, np.abs(c).max())
    c = c / obj_scale

    # Signed rank-one terms (s, row, f) per PSD block; a coefficient shared by
    # several rows or blocks is factored once.
    factors, terms = {}, {bidx: [] for _, _, bidx in psd_blocks}
    for i, con in enumerate(problem.constraints):
        for bidx in terms.keys() & con.coeffs.keys():
            C = con.coeffs[bidx]
            if id(C) not in factors:
                w, V = np.linalg.eigh(C)
                keep = np.abs(w) > np.abs(w).max() * len(w) * np.finfo(float).eps
                factors[id(C)] = w[keep], V[:, keep].T
            scale = (-1.0 if con.sense == ">=" else 1.0) * row_scale[i] * col_scale[block_slices[bidx].start]
            terms[bidx] += [(scale * wt, i, f) for wt, f in zip(*factors[id(C)])]

    nu = len(nn_idx) + sum(d for _, d, _ in psd_blocks)
    psd_groups, psd_terms = [], []
    for d in sorted({dim for _, dim, _ in psd_blocks}):
        group = [(off, bidx) for off, dim, bidx in psd_blocks if dim == d]
        psd_groups.append((d, np.array([np.arange(off, off + d * d) for off, _ in group])))
        t = max(len(terms[bidx]) for _, bidx in group)
        F = np.zeros((len(group), d, t), dtype=complex)
        s, rows = np.zeros((len(group), t)), np.zeros((len(group), t), dtype=int)
        for g, (_, bidx) in enumerate(group):
            for k, (wt, i, f) in enumerate(terms[bidx]):
                s[g, k], rows[g, k], F[g, :, k] = wt, i, f
        psd_terms.append((F, s, rows))
    return _StandardForm(A, b, c, nn_arr, A[:, nn_arr], psd_groups, psd_terms,
                         block_slices, row_scale, col_scale, obj_scale, nu)


# ---------------------------------------------------------------------------
# Nesterov-Todd scaling
# ---------------------------------------------------------------------------

def _ct(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return X.conj().swapaxes(-1, -2)


def _psd_factor(X: np.ndarray) -> np.ndarray:
    """Some F[b] with X[b] = F[b] F[b]^H for a (B, d, d) stack: Cholesky for
    every matrix where it succeeds, clamped eigh for those where it fails."""
    try:
        return np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        pass
    F = np.empty_like(X)
    for i, Xi in enumerate(X):
        try:
            F[i] = np.linalg.cholesky(Xi)
        except np.linalg.LinAlgError:
            w, V = np.linalg.eigh(Xi)
            floor = max(np.abs(w).max(), 1.0) * 1e-14
            F[i] = V * np.sqrt(np.maximum(w, floor))
    return F


def _nt_scaling(X: np.ndarray, Z: np.ndarray):
    """NT scaling points of a (B, d, d) stack of PSD pairs:
    G^{-1} X G^{-H} = G^H Z G = diag(lam) per pair."""
    Lx = _psd_factor(X)
    Lz = _psd_factor(Z)
    LzH = _ct(Lz)
    U, s, Vh = np.linalg.svd(LzH @ Lx)
    s = np.maximum(s, np.abs(s).max(axis=-1, keepdims=True) * 1e-15)
    r = s ** -0.5
    G = Lx @ (_ct(Vh) * r[:, None, :])
    Ginv = r[:, :, None] * (_ct(U) @ LzH)
    W = G @ _ct(G)
    return G, Ginv, s, W


class _Scaling:
    """Per-iteration NT scaling data and the H = W (x) W operator.  PSD data
    is held per size group as (B, d, d) stacks, in the order of sf.psd_groups."""

    def __init__(self, sf: _StandardForm, x: np.ndarray, z: np.ndarray):
        self.sf = sf
        self.w_nn = np.sqrt(x[sf.nn_idx] / z[sf.nn_idx])
        self.w2_nn = self.w_nn ** 2
        self.lam_nn = np.sqrt(x[sf.nn_idx] * z[sf.nn_idx])
        xz = np.stack((x, z))
        self.psd = [(d, idx) + _nt_scaling(*smat(xz[:, idx], d)) for d, idx in sf.psd_groups]

    def apply_H(self, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        out[self.sf.nn_idx] = v[self.sf.nn_idx] * self.w2_nn
        for d, idx, _G, _Gi, _lam, W in self.psd:
            out[idx] = svec(W @ smat(v[idx], d) @ W)
        return out

    def schur(self) -> np.ndarray:
        """M = A H A^T from the orthant columns of A and the rank-one terms of
        each size group (see the module docstring)."""
        sf = self.sf
        M = (sf.A_nn * self.w2_nn) @ sf.A_nn.T
        m = len(M)
        for (_d, _idx, _G, _Gi, _lam, W), (F, s, rows) in zip(self.psd, sf.psd_terms):
            P = _ct(F) @ W @ F
            P = (s[:, :, None] * s[:, None, :]) * (P.real ** 2 + P.imag ** 2)
            pairs = rows[:, :, None] * m + rows[:, None, :]
            M += np.bincount(pairs.ravel(), P.ravel(), m * m).reshape(m, m)
        return M

    def scaled_steps(self, dx: np.ndarray, dz: np.ndarray) -> list:
        """Per size group, the (2, B, d, d) stack of the scaled primal and
        dual steps G^{-1} dX G^{-H} and G^H dZ G."""
        steps = []
        for d, idx, G, Gi, _lam, _W in self.psd:
            D = smat(np.stack((dx[idx], dz[idx])), d)
            M = np.stack((Gi @ D[0] @ _ct(Gi), _ct(G) @ D[1] @ G))
            steps.append(0.5 * (M + _ct(M)))
        return steps


def _max_step(sc: _Scaling, x, z, tau, kappa, dx, dz, dtau, dkappa, steps):
    """Largest a with (x, z, tau, kappa) + a*step still in the cone closure."""
    nn = sc.sf.nn_idx
    val = np.concatenate((x[nn], z[nn], (tau, kappa)))
    step = np.concatenate((dx[nn], dz[nn], (dtau, dkappa)))
    neg = step < 0
    ratios = [np.min(-val[neg] / step[neg], initial=np.inf)]
    for (_d, _idx, _G, _Gi, lam, _W), D in zip(sc.psd, steps):
        denom = np.sqrt(lam[:, :, None] * lam[:, None, :])
        emin = np.linalg.eigvalsh(D / denom)[..., 0]
        ratios.append(np.min(-1.0 / emin[emin < 0], initial=np.inf))
    return min(ratios)


# ---------------------------------------------------------------------------
# Core homogeneous self-dual loop
# ---------------------------------------------------------------------------

class _NormalEquations:
    """Cholesky solve of M = A H A^T with up to two steps of iterative
    refinement against the formed M, through LAPACK's potrf/potrs directly.
    A non-finite M or right-hand side raises ValueError and a factorization
    that fails raises LinAlgError; either ends the solve.

    Refinement against M cannot correct the error of forming M itself, which
    dominates once cond(M) nears 1/eps; the end-game of the interior-point loop
    refines against the unformed Newton system instead."""

    def __init__(self, M):
        self.M = M = 0.5 * (M + M.T)
        if not np.isfinite(M).all():
            raise ValueError("non-finite normal equations")
        self.L, info = dpotrf(M, lower=1, clean=0)
        if info != 0:
            raise np.linalg.LinAlgError(f"M is not positive definite (potrf info {info})")

    def _potrs(self, rhs):
        if not np.isfinite(rhs).all():
            raise ValueError("non-finite right-hand side")
        return dpotrs(self.L, rhs, lower=1)[0]

    def solve(self, rhs):
        u = self._potrs(rhs)
        for _ in range(2):
            r = rhs - self.M @ u
            if np.abs(r).max() <= 1e-14 * max(np.abs(rhs).max(), 1e-300):
                break
            u = u + self._potrs(r)
        return u


def _ip_hsd(sf: _StandardForm):
    A, b, c = sf.A, sf.b, sf.c
    m, n = A.shape

    x = np.zeros(n)
    x[sf.nn_idx] = 1.0
    for d, idx in sf.psd_groups:
        x[idx] = svec(np.eye(d))
    z = x.copy()
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0

    status, message = NUMERICAL_FAILURE, "iteration limit reached"
    best = None
    best_history = []       # best[0] after each iteration, for the stall exit
    endgame = False

    # Each iterate is evaluated once, at the top of the loop, and every exit
    # breaks before a step, so the last evaluation is the returned iterate's.
    # Residuals are measured per row relative to the magnitudes actually
    # summed there (|r_i| <= den_i by the triangle inequality), so rows whose
    # natural scale differs by many orders share one tolerance and row
    # scaling cannot hide a violated constraint behind a small rhs.  Rows
    # whose magnitude sits far below the largest row are floored at 1e-5 of
    # that scale: their ratio would otherwise be noise over noise, and the
    # floor keeps the roundoff ratio eps/floor safely under the tolerances.
    Aabs = np.abs(A)
    babs, cabs = np.abs(b), np.abs(c)

    def _relres(r, den):
        floor = max(1e-5 * den.max(), 1e-300)
        return float((np.abs(r) / np.maximum(den, floor)).max())

    for it in range(MAX_ITERS + 1):
        mu = (x @ z + tau * kappa) / (sf.nu + 1)
        rp = A @ x - b * tau
        den_p = Aabs @ np.abs(x) + babs * tau
        pres = _relres(rp, den_p)
        ATy_z = A.T @ y + z
        rd = ATy_z - c * tau
        den_d = Aabs.T @ np.abs(y) + np.abs(z) + cabs * tau
        dres = _relres(rd, den_d)
        pobj = (c @ x) / tau
        dobj = (b @ y) / tau
        cgap = (x @ z) / tau ** 2
        relgap = max(cgap, abs(pobj - dobj)) / max(1.0, abs(pobj), abs(dobj))
        if best is None or max(pres, dres, relgap) < best[0]:
            best = (max(pres, dres, relgap), pres, dres, relgap,
                    x.copy(), y.copy(), z.copy(), tau, kappa)
        best_history.append(best[0])

        if pres <= TOL_FEAS and dres <= TOL_FEAS and relgap <= TOL_GAP:
            status, message = OPTIMAL, ""
            break
        if mu <= 0:
            # Complementarity has reached the floating-point noise floor; no
            # further progress is possible from here.
            status, message = NUMERICAL_FAILURE, "complementarity at noise floor"
            break

        # Farkas-type certificate through the embedding.
        bty = b @ y

        def ray_certificate(quality):
            if bty > 0 and np.abs(ATy_z).max() <= quality * bty:
                return INFEASIBLE, "dual improving ray found"
            return None

        def failure(reason):
            # A ray of reasonable quality still certifies; otherwise give up.
            return ray_certificate(1e-6) or (NUMERICAL_FAILURE, reason)

        cert = ray_certificate(TOL_INFEAS)
        if cert:
            status, message = cert
            break
        if tau <= 1e-13 * max(1.0, kappa):
            # The embedding only certifies a collapsed tau when an improving
            # ray of reasonable quality exists; otherwise the collapse is a
            # numerical artifact and must not be reported as a certificate.
            # The threshold is a last-resort failsafe: tiny but stable tau is
            # handled fine by the relative residual measures above.
            status, message = failure("tau collapsed without a certificate")
            break
        if it == MAX_ITERS:
            break
        if (best[1] <= CERT_FEAS and best[2] <= CERT_FEAS and best[3] <= CERT_GAP
                and len(best_history) > _STALL_WINDOW
                and best[0] > 0.5 * best_history[-1 - _STALL_WINDOW]):
            # The best iterate is certified and has not halved its residual
            # measure over the window: the targets are out of reach at this
            # precision.  The best-iterate fallback below returns it.
            status, message = NUMERICAL_FAILURE, "stalled"
            break

        r_P = -rp
        r_D = c * tau - A.T @ y - z
        r_G = c @ x - bty + kappa

        sc = _Scaling(sf, x, z)
        try:
            neq = _NormalEquations(sc.schur())
            Hc = sc.apply_H(c)
            y1 = neq.solve(b + A @ Hc)
        except (np.linalg.LinAlgError, ValueError):
            status, message = failure("singular normal equations")
            break
        x1 = sc.apply_H(A.T @ y1) - Hc
        denom_tau = b @ y1 - c @ x1 + kappa / tau
        if abs(denom_tau) < 1e-300 or not np.isfinite(denom_tau):
            status, message = NUMERICAL_FAILURE, "degenerate tau step"
            break
        HrD = sc.apply_H(r_D)

        def newton(p, d, g, u, t):
            """Solve the linearized embedding through the factored M:
            A dx - b dtau = p,  A'dy + dz - c dtau = d,  b'dy - c'dx - dkappa = g,
            dx + H dz = v,  kappa dtau + tau dkappa = t,  given u = v - H d."""
            y0 = neq.solve(p - A @ u)
            x0 = sc.apply_H(A.T @ y0) + u
            dtau = (g + c @ x0 - b @ y0 + t / tau) / denom_tau
            dx = x0 + dtau * x1
            dy = y0 + dtau * y1
            dz = d + c * dtau - A.T @ dy
            dkappa = (t - kappa * dtau) / tau
            return dx, dy, dz, dtau, dkappa

        def refined(p, d, g, v, t, dy, dtau):
            """End-game direction from (dy, dtau).  dz, dx and dkappa follow
            from the dual, complementarity and kappa rows, so those hold to
            roundoff; (dy, dtau) is then refined against the primal and gap
            rows evaluated with A and H themselves rather than the formed M.
            Each row's error is taken relative to the residual the step is
            to reduce (never below the target), and a correction is kept
            only when it lowers the larger of the two."""
            zero = np.zeros(n)

            def complete(dy, dtau):
                dz = d + c * dtau - A.T @ dy
                dx = v - sc.apply_H(dz)
                dkappa = (t - kappa * dtau) / tau
                e_p = p - (A @ dx - b * dtau)
                e_g = g - (b @ dy - c @ dx - dkappa)
                err = max(_relres(e_p, den_p) / max(pres, TOL_FEAS),
                          abs(e_g) / (tau * max(1.0, abs(pobj), abs(dobj)))
                          / max(relgap, TOL_GAP))
                return err, (dx, dy, dz, dtau, dkappa), e_p, e_g

            err, step, e_p, e_g = complete(dy, dtau)
            for _ in range(_REFINE_STEPS):
                _, cy, _, ctau, _ = newton(e_p, zero, e_g, zero, 0.0)
                cand = complete(step[1] + cy, step[3] + ctau)
                if not cand[0] < err:
                    break
                err, step, e_p, e_g = cand
            return step

        def direction(sigma, v, t_rhs):
            """The step for centring weight sigma, its scaled steps and its
            largest step to the cone boundary; None if it is not finite."""
            eta = 1.0 - sigma
            p, d, g = eta * r_P, eta * r_D, eta * r_G
            try:
                step = newton(p, d, g, v - eta * HrD, t_rhs)
                if endgame:
                    step = refined(p, d, g, v, t_rhs, step[1], step[3])
            except (np.linalg.LinAlgError, ValueError):
                return None
            dx, _dy, dz, dtau, dkappa = step
            if not (np.isfinite(dx).all() and np.isfinite(dz).all()
                    and np.isfinite(dtau) and np.isfinite(dkappa)):
                return None
            steps = sc.scaled_steps(dx, dz)
            return step, steps, _max_step(sc, x, z, tau, kappa, dx, dz, dtau, dkappa, steps)

        # Predictor (affine scaling).
        pred = direction(0.0, -x, -tau * kappa)
        if pred is None:
            status, message = failure("non-finite search direction")
            break
        (dxa, _dya, dza, dtaua, dkappaa), Da, a_max = pred
        a_aff = min(1.0, a_max)
        mu_aff = ((x + a_aff * dxa) @ (z + a_aff * dza)
                  + (tau + a_aff * dtaua) * (kappa + a_aff * dkappaa)) / (sf.nu + 1)
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # Corrector right-hand side in the scaled space.  A non-finite v
        # reaches the normal equations, whose solve refuses it.
        v = np.zeros(n)
        nn = sf.nn_idx
        v[nn] = (sc.w_nn / sc.lam_nn) * (sigma * mu - dxa[nn] * dza[nn]) - x[nn]
        for (d, idx, G, _Gi, lam, _W), (Dx_b, Dz_b) in zip(sc.psd, Da):
            # Per block, in this order: (sigma mu I - diag(lam^2)) - corr.
            corr = 0.5 * (Dx_b @ Dz_b + Dz_b @ Dx_b)
            R = sigma * mu * np.eye(d) - lam[:, :, None] ** 2 * np.eye(d) - corr
            R *= 2.0 / (lam[:, :, None] + lam[:, None, :])
            v[idx] = svec(G @ R @ _ct(G))

        full = direction(sigma, v, sigma * mu - tau * kappa - dtaua * dkappaa)
        if full is None:
            status, message = failure("non-finite search direction")
            break
        (dx, dy, dz, dtau, dkappa), _D, a_max = full
        alpha = min(1.0, STEP_FRACTION * a_max)
        if not np.isfinite(alpha) or alpha <= 1e-13:
            status, message = NUMERICAL_FAILURE, "step length collapsed"
            break
        endgame = endgame or alpha < _ENDGAME_STEP

        x += alpha * dx
        y += alpha * dy
        z += alpha * dz
        tau += alpha * dtau
        kappa += alpha * dkappa

    if status == NUMERICAL_FAILURE and max(pres, dres, relgap) > best[0]:
        # Late iterations operating at the noise floor can degrade the
        # iterate; fall back to the best one seen.
        _, pres, dres, relgap, x, y, z, tau, kappa = best
    if status == NUMERICAL_FAILURE and pres <= CERT_FEAS and dres <= CERT_FEAS and relgap <= CERT_GAP:
        # The certification bounds hold even though the target tolerances were
        # not reached; the solution is still a valid optimum.
        status, message = OPTIMAL, "reduced precision (certification bounds met)"
    return status, message, x, y, z, tau, kappa, it, (pres, dres, relgap)


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------

def solve(problem: ConicProblem) -> ConicSolution:
    """Solve a ConicProblem; the returned status is always certified.

    status=optimal guarantees primal/dual residuals <= 1e-8 measured per row
    relative to the summed coefficient magnitudes, and relative gap <= 1e-6;
    infeasible comes with an improving-ray certificate; anything else
    (an unbounded problem included) is numerical_failure with residuals
    attached.
    """
    if not problem.blocks:
        raise InvalidInputError("problem has no variable blocks")
    if not problem.constraints:
        raise InvalidInputError("problem has no constraints")
    sf = _standard_form(problem)

    # Divergent iterates on infeasible or unbounded data may overflow before a
    # certificate is extracted or the loop gives up; the finite guards inside
    # handle that case.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        status, message, x, y, z, tau, kappa, iters, res = _ip_hsd(sf)
    pres, dres, relgap = res

    if status == OPTIMAL:
        xhat = (x / tau) * sf.col_scale
        # row_scale holds the multipliers applied to the rows, so the
        # user-space multiplier of row i is -obj_scale * row_scale_i * y_i
        # (nonnegative: the internal form of every row is lhs + slack = rhs
        # with lhs stated as <=).
        yhat = (y / tau) * sf.obj_scale * sf.row_scale
        block_values = []
        for blk, sl in zip(problem.blocks, sf.block_slices):
            block_values.append(xhat[sl].copy() if blk.kind == NONNEG else smat(xhat[sl], blk.dim))
        # c'x and b'y of the internal standard form equal the primal value
        # and the Lagrangian dual value of the original mixed-sense problem.
        pobj = sf.obj_scale * float(sf.c @ (x / tau))
        dobj = sf.obj_scale * float(sf.b @ (y / tau))
        return ConicSolution(OPTIMAL, block_values, -yhat, pobj, dobj, iters,
                             pres, dres, relgap, message)

    if status == INFEASIBLE:
        yhat = y * sf.obj_scale * sf.row_scale
        duals = -(yhat / max(np.abs(yhat).max(), 1e-300))
        return ConicSolution(status, None, duals, np.nan, np.nan, iters,
                             pres, dres, relgap, message)

    return ConicSolution(NUMERICAL_FAILURE, None, None, np.nan, np.nan, iters,
                         pres, dres, relgap, message)

