"""Interior-point engine: analytic instances, independent oracles, certificates."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import combinations
from scipy.optimize import linprog

from softcell import conic_solver as cs
from softcell.conic_problem import NONNEG, PSD, Block, ConicProblem
from softcell.exceptions import InvalidInputError


def _rand_psd(rng, d, jitter=0.0):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return M @ M.conj().T + jitter * np.eye(d)


# ---------------------------------------------------------------------------
# Hermitian vectorization
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 4))
def test_svec_isometry_and_roundtrip(seed, d, B):
    rng = np.random.default_rng(seed)
    X, Y = _rand_psd(rng, d), _rand_psd(rng, d)
    assert np.abs(cs.smat(cs.svec(X), d) - X).max() < 1e-12
    inner = float(np.real(np.trace(X @ Y)))
    assert abs(cs.svec(X) @ cs.svec(Y) - inner) < 1e-10 * (1 + abs(inner))
    # A stack (B, d, d) maps to the rows of its matrices' vectors, and back.
    S = np.stack([_rand_psd(rng, d) for _ in range(B)])
    V = cs.svec(S)
    assert np.array_equal(V, np.stack([cs.svec(M) for M in S]))
    assert np.array_equal(cs.smat(V, d), np.stack([cs.smat(v, d) for v in V]))
    assert np.abs(cs.smat(V, d) - S).max() < 1e-12


def _svec_by_parts(X):
    """svec as three writes: the real diagonal, then sqrt(2) Re and sqrt(2) Im
    of the strict upper triangle."""
    d = X.shape[-1]
    iu, ju = np.triu_indices(d, 1)
    flat = X.reshape(X.shape[:-2] + (d * d,))
    out = np.empty(flat.shape)
    out[..., :d] = flat[..., ::d + 1].real
    off = flat[..., iu * d + ju]
    out[..., d::2] = cs.SQRT2 * off.real
    out[..., d + 1::2] = cs.SQRT2 * off.imag
    return out


def _smat_by_parts(v, d):
    """smat as three writes into a zero matrix: upper, mirrored lower, diagonal."""
    iu, ju = np.triu_indices(d, 1)
    X = np.zeros(v.shape[:-1] + (d * d,), dtype=complex)
    off = (v[..., d::2] + 1j * v[..., d + 1::2]) / cs.SQRT2
    X[..., iu * d + ju] = off
    X[..., ju * d + iu] = off.conj()
    X[..., ::d + 1] = v[..., :d]
    return X.reshape(v.shape[:-1] + (d, d))


@pytest.mark.parametrize("d", range(1, 9))
def test_vectorization_gathers_are_bitwise_the_elementwise_formulas(d):
    rng = np.random.default_rng(100 + d)
    for shape in [(), (3,), (2, 4)]:
        X = rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
        X = X + np.swapaxes(X.conj(), -1, -2)
        assert np.array_equal(cs.svec(X), _svec_by_parts(X))
        # Entries over sixteen orders of magnitude.
        v = rng.normal(size=shape + (d * d,)) * 10.0 ** rng.uniform(-8, 8, size=shape + (d * d,))
        assert np.array_equal(cs.smat(v, d), _smat_by_parts(v, d))
        assert cs.svec(X).flags.c_contiguous and cs.smat(v, d).flags.c_contiguous
    # Real input, as at the interior-point start.
    assert np.array_equal(cs.svec(np.eye(d)), _svec_by_parts(np.eye(d)))


# ---------------------------------------------------------------------------
# Interior-point kernels
# ---------------------------------------------------------------------------

def test_normal_equations_fail_and_solve_as_the_cholesky_wrappers():
    rng = np.random.default_rng(71)
    # cond(M) near 1e13, so the refinement steps run.
    Q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
    M = (Q * np.logspace(0, 13, 9)) @ Q.T
    rhs = rng.normal(size=9)
    neq = cs._NormalEquations(M)
    sym = 0.5 * (M + M.T)
    fac = sla.cho_factor(sym, lower=True)
    u = sla.cho_solve(fac, rhs)
    for _ in range(2):
        r = rhs - sym @ u
        if np.abs(r).max() <= 1e-14 * max(np.abs(rhs).max(), 1e-300):
            break
        u = u + sla.cho_solve(fac, r)
    assert np.array_equal(neq.solve(rhs), u)

    with pytest.raises(np.linalg.LinAlgError):
        cs._NormalEquations(np.diag([1.0, -1.0, 2.0]))
    bad = M.copy()
    bad[0, 3] = bad[3, 0] = np.nan         # an off-diagonal NaN leaves potrf's info at 0
    with pytest.raises(ValueError):
        cs._NormalEquations(bad)
    rhs[4] = np.nan
    with pytest.raises(ValueError):
        neq.solve(rhs)


def test_step_length_is_the_minimum_over_both_sides():
    # Orthant coordinates and 2x2 and 3x3 blocks at a random interior pair:
    # the step taken on both sides at once equals the ratio test run side by
    # side, for random directions and for directions where only one part (x
    # or z on the orthant, tau, kappa, X or Z on the PSD blocks) bounds it.
    rng = np.random.default_rng(73)
    prob = ConicProblem([Block(NONNEG, 3), Block(PSD, 2), Block(PSD, 3), Block(PSD, 2)])
    prob.add_constraint({0: np.array([1.0, 2.0, 0.5]), 1: _rand_psd(rng, 2)}, ">=", 1.0)
    prob.add_constraint({2: _rand_psd(rng, 3), 3: _rand_psd(rng, 2, 0.5)}, "<=", 4.0)
    sf = cs._standard_form(prob)
    n, nn = sf.A.shape[1], sf.nn_idx
    psd = np.concatenate([idx.ravel() for _, idx in sf.psd_groups])
    x, z = np.zeros(n), np.zeros(n)
    for v in (x, z):
        v[nn] = rng.uniform(0.5, 2.0, len(nn))
        for d, idx in sf.psd_groups:
            v[idx] = cs.svec(np.stack([_rand_psd(rng, d, 0.1) for _ in idx]))
    sc = cs._Scaling(sf, x, z)
    tau, kappa = 1.3, 0.7
    # The NT point maps X and Z to the same diagonal: G^{-1} X G^{-H} =
    # G^H Z G = diag(lam), so the scaled steps of (x, z) are that diagonal,
    # the primal one first.
    for (_d, _idx, _G, _Gi, lam, _W), D in zip(sc.psd, sc.scaled_steps(x, 2.0 * z)):
        assert D.shape == (2,) + lam.shape + lam.shape[-1:]
        diag = lam[:, :, None] * np.eye(lam.shape[-1])
        assert np.abs(D[0] - diag).max() < 1e-12 * lam.max()
        assert np.abs(D[1] - 2.0 * diag).max() < 1e-12 * lam.max()

    def side_by_side(dx, dz, dtau, dkappa, steps):
        ratios = [np.inf]
        for val, step in ((x[nn], dx[nn]), (z[nn], dz[nn]),
                          (np.array([tau, kappa]), np.array([dtau, dkappa]))):
            if np.any(step < 0):
                ratios.append(np.min(-val[step < 0] / step[step < 0]))
        for (_d, _idx, _G, _Gi, lam, _W), (Dx_b, Dz_b) in zip(sc.psd, steps):
            denom = np.sqrt(lam[:, :, None] * lam[:, None, :])
            for D in (Dx_b, Dz_b):
                emin = np.linalg.eigvalsh(D / denom)[:, 0]
                if np.any(emin < 0):
                    ratios.append(np.min(-1.0 / emin[emin < 0]))
        return min(ratios)

    for bound in ("all", "x", "z", "tau", "kappa", "X", "Z"):
        dx, dz = 3.0 * rng.normal(size=n), 3.0 * rng.normal(size=n)
        dtau, dkappa = -0.4, -0.9
        if bound != "all":
            dx[nn] = np.abs(dx[nn]) * (-1.0 if bound == "x" else 1.0)
            dz[nn] = np.abs(dz[nn]) * (-1.0 if bound == "z" else 1.0)
            dtau, dkappa = (-0.4 if bound == "tau" else 0.4), (-0.9 if bound == "kappa" else 0.9)
            if bound != "X":
                dx[psd] = 0.0
            if bound != "Z":
                dz[psd] = 0.0
        steps = sc.scaled_steps(dx, dz)
        step = cs._max_step(sc, x, z, tau, kappa, dx, dz, dtau, dkappa, steps)
        assert np.isfinite(step)
        assert step == side_by_side(dx, dz, dtau, dkappa, steps)


# ---------------------------------------------------------------------------
# Analytic instances
# ---------------------------------------------------------------------------

def test_trace_minimization_aligns_with_constraint_vector():
    h = np.array([1.0, 0.0], dtype=complex)
    prob = ConicProblem([Block(PSD, 2)])
    prob.add_constraint({0: np.outer(h, h.conj())}, ">=", 1.0)
    prob.set_objective({0: np.eye(2, dtype=complex)})
    sol = cs.solve(prob)
    assert sol.status == cs.OPTIMAL
    assert abs(sol.primal_objective - 1.0) < 1e-6
    assert np.abs(sol.block_values[0] - np.diag([1.0, 0.0])).max() < 1e-5


def test_one_variable_lp_and_its_multiplier():
    prob = ConicProblem([Block(NONNEG, 1)])
    row = prob.add_constraint({0: np.array([1.0 / 3.0])}, ">=", 1.0)
    prob.set_objective({0: np.array([1.0])})
    sol = cs.solve(prob)
    assert sol.status == cs.OPTIMAL
    assert abs(sol.primal_objective - 3.0) < 1e-6
    assert abs(sol.duals[row] - 3.0) < 1e-6


def test_contradictory_trace_bound_is_certified_infeasible():
    h = np.array([1.0, 0.0], dtype=complex)
    prob = ConicProblem([Block(PSD, 2)])
    prob.add_constraint({0: np.outer(h, h.conj())}, ">=", 1.0)
    prob.add_constraint({0: np.eye(2, dtype=complex)}, "<=", 0.5)
    prob.set_objective({0: np.eye(2, dtype=complex)})
    sol = cs.solve(prob)
    assert sol.status == cs.INFEASIBLE
    assert sol.duals is not None


def test_mixed_cone_program():
    # min p + tr(W) with p >= 2 and h^H W h >= 1, ||h|| = 1: optimum 2 + 1.
    h = np.array([0.6, 0.8], dtype=complex)
    prob = ConicProblem([Block(NONNEG, 1), Block(PSD, 2)])
    prob.add_constraint({0: np.array([1.0])}, ">=", 2.0)
    prob.add_constraint({1: np.outer(h, h.conj())}, ">=", 1.0)
    prob.set_objective({0: np.array([1.0]), 1: np.eye(2, dtype=complex)})
    sol = cs.solve(prob)
    assert sol.status == cs.OPTIMAL
    assert abs(sol.primal_objective - 3.0) < 1e-6


def test_inactive_constraint_has_negligible_multiplier():
    prob = ConicProblem([Block(NONNEG, 1)])
    active = prob.add_constraint({0: np.array([1.0])}, ">=", 1.0)
    inactive = prob.add_constraint({0: np.array([1.0])}, "<=", 100.0)
    prob.set_objective({0: np.array([1.0])})
    sol = cs.solve(prob)
    assert sol.status == cs.OPTIMAL
    assert abs(sol.duals[active] - 1.0) < 1e-6
    assert abs(sol.duals[inactive]) < 1e-6


def test_duals_reproduce_the_objective():
    rng = np.random.default_rng(0)
    prob = ConicProblem([Block(NONNEG, 4)])
    A = rng.uniform(0.2, 1.0, size=(3, 4))
    rows = [prob.add_constraint({0: A[i]}, ">=", 1.0) for i in range(3)]
    prob.set_objective({0: rng.uniform(0.5, 1.5, size=4)})
    sol = cs.solve(prob)
    assert sol.status == cs.OPTIMAL
    gap = abs(sol.primal_objective - sol.dual_objective)
    assert gap <= 1e-6 * (1.0 + abs(sol.primal_objective))
    lagrangian = sum(sol.duals[r] * 1.0 for r in rows)
    assert abs(lagrangian - sol.dual_objective) <= 1e-6 * (1.0 + abs(sol.dual_objective))


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def test_random_lps_match_reference_solver():
    rng = np.random.default_rng(42)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(20):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 7))
        A = rng.normal(size=(m, n)) * np.exp(rng.uniform(-4, 4, size=(m, 1)))
        c = rng.uniform(0.1, 2.0, size=n) * rng.choice([1.0, 1.0, -1.0], size=n)
        senses = rng.choice(["<=", ">="], size=m)
        b = A @ rng.uniform(0.0, 2.0, size=n) + np.where(senses == "<=", 1.0, -1.0) \
            * rng.uniform(0.0, 1.0, size=m)
        Au = np.where((senses == "<=")[:, None], A, -A)
        bu = np.where(senses == "<=", b, -b)
        ref = linprog(c, A_ub=Au, b_ub=bu, method="highs")
        prob = ConicProblem([Block(NONNEG, n)])
        rows = [prob.add_constraint({0: A[i]}, senses[i], b[i]) for i in range(m)]
        prob.set_objective({0: c})
        sol = cs.solve(prob)
        if ref.status == 0:
            assert sol.status == cs.OPTIMAL, sol.message
            assert abs(sol.primal_objective - ref.fun) <= 1e-6 * (1 + abs(ref.fun))
            mu = np.array([sol.duals[r] for r in rows])
            mu_ref = np.abs(ref.ineqlin.marginals)
            assert np.abs(mu - mu_ref).max() <= 1e-5 * (1 + mu_ref.max())
            statuses["optimal"] += 1
        elif ref.status == 2:
            assert sol.status == cs.INFEASIBLE
            statuses["infeasible"] += 1
        elif ref.status == 3:
            # No improving-ray certificate for unboundedness: such a program
            # ends as a failure, never as a claimed optimum.
            assert sol.status == cs.NUMERICAL_FAILURE
            statuses["unbounded"] += 1
    assert statuses["optimal"] >= 10


def test_small_lps_match_vertex_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m, n = 4, 3
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0.2, 1.5, size=n) + rng.uniform(0.1, 1.0, size=m)
        c = rng.uniform(0.2, 2.0, size=n)
        # Vertices of {A x <= b, x >= 0}: n active rows among [A; -I].
        G = np.vstack([A, -np.eye(n)])
        gb = np.concatenate([b, np.zeros(n)])
        best = np.inf
        for idx in combinations(range(m + n), n):
            sub = G[list(idx)]
            if abs(np.linalg.det(sub)) < 1e-10:
                continue
            v = np.linalg.solve(sub, gb[list(idx)])
            if np.all(G @ v <= gb + 1e-9):
                best = min(best, float(c @ v))
        prob = ConicProblem([Block(NONNEG, n)])
        for i in range(m):
            prob.add_constraint({0: A[i]}, "<=", b[i])
        prob.set_objective({0: c})
        sol = cs.solve(prob)
        assert sol.status == cs.OPTIMAL
        assert abs(sol.primal_objective - best) <= 1e-6 * (1 + abs(best))


def test_sdp_normalized_gain_maximization_closed_form():
    # min tr(X) s.t. tr(A X) >= 1 has optimum 1/lambda_max(A) at the dominant
    # eigenvector of A.
    rng = np.random.default_rng(7)
    for _ in range(15):
        A = _rand_psd(rng, 2, jitter=0.1)
        ref = 1.0 / sla.eigh(A, eigvals_only=True)[-1]
        prob = ConicProblem([Block(PSD, 2)])
        prob.add_constraint({0: A}, ">=", 1.0)
        prob.set_objective({0: np.eye(2, dtype=complex)})
        sol = cs.solve(prob)
        assert sol.status == cs.OPTIMAL
        assert abs(sol.primal_objective - ref) <= 1e-6 * (1 + abs(ref))


def test_sdp_generalized_eigenvalue_closed_form():
    # min tr(C X) s.t. tr(A X) >= 1, X >= 0 with A > 0, C > 0 attains the
    # smallest generalized eigenvalue of (C, A): the optimum makes the row
    # tight, since scaling X down lowers the objective.
    rng = np.random.default_rng(11)
    for _ in range(10):
        A = _rand_psd(rng, 2, jitter=0.3)
        C = _rand_psd(rng, 2)
        ref = sla.eigh(C, A, eigvals_only=True)[0]
        prob = ConicProblem([Block(PSD, 2)])
        prob.add_constraint({0: A}, ">=", 1.0)
        prob.set_objective({0: C})
        sol = cs.solve(prob)
        assert sol.status == cs.OPTIMAL
        assert abs(sol.primal_objective - ref) <= 1e-6 * (1 + abs(ref))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_feasible_lps_solve_and_respect_senses(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 6)), int(rng.integers(2, 6))
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.1, 2.0, size=n)
    senses = rng.choice(["<=", ">="], size=m)
    b = A @ x0 + np.where(senses == "<=", 0.5, -0.5)
    prob = ConicProblem([Block(NONNEG, n)])
    rows = [prob.add_constraint({0: A[i]}, senses[i], b[i]) for i in range(m)]
    prob.set_objective({0: rng.uniform(0.1, 1.0, size=n)})
    sol = cs.solve(prob)
    assert sol.status == cs.OPTIMAL, sol.message
    scale = 1.0 + np.abs(A).sum(axis=1) * np.abs(sol.block_values[0]).max()
    for i, r in enumerate(rows):
        lhs = A[i] @ sol.block_values[0]
        if senses[i] == "<=":
            assert lhs <= b[i] + 1e-6 * scale[i]
        else:
            assert lhs >= b[i] - 1e-6 * scale[i]
        assert sol.duals[r] >= -1e-9


# ---------------------------------------------------------------------------
# Certification and determinism
# ---------------------------------------------------------------------------

def test_returned_psd_blocks_are_numerically_psd():
    rng = np.random.default_rng(19)
    for _ in range(5):
        A1, A2 = _rand_psd(rng, 3, 0.2), _rand_psd(rng, 3, 0.2)
        prob = ConicProblem([Block(PSD, 3)])
        prob.add_constraint({0: A1}, ">=", 1.0)
        prob.add_constraint({0: A2}, "<=", 5.0)
        prob.set_objective({0: np.eye(3, dtype=complex)})
        sol = cs.solve(prob)
        assert sol.status == cs.OPTIMAL
        W = sol.block_values[0]
        trace = float(np.real(np.trace(W)))
        assert np.linalg.eigvalsh(W)[0] >= -1e-9 * max(trace, 1.0)
        assert sol.residual_primal <= 1e-8
        assert sol.residual_dual <= 1e-8
        assert sol.residual_gap <= 1e-6


def test_weak_duality_at_near_feasible_iterates():
    rng = np.random.default_rng(23)
    for _ in range(8):
        A = _rand_psd(rng, 2, 0.2)
        prob = ConicProblem([Block(PSD, 2)])
        prob.add_constraint({0: A}, ">=", 1.0)
        prob.set_objective({0: _rand_psd(rng, 2, 0.1)})
        sol = cs.solve(prob)
        assert sol.status == cs.OPTIMAL
        assert sol.dual_objective <= sol.primal_objective \
            + 1e-6 * max(1.0, abs(sol.primal_objective))


def test_repeated_solves_are_bitwise_identical():
    rng = np.random.default_rng(31)
    prob = ConicProblem([Block(NONNEG, 3), Block(PSD, 2)])
    prob.add_constraint({0: rng.uniform(0.5, 1.0, 3), 1: _rand_psd(rng, 2, 0.1)}, ">=", 2.0)
    prob.set_objective({0: np.ones(3), 1: np.eye(2, dtype=complex)})
    a, b = cs.solve(prob), cs.solve(prob)
    assert a.primal_objective == b.primal_objective
    assert np.array_equal(a.block_values[0], b.block_values[0])
    assert np.array_equal(a.block_values[1], b.block_values[1])
    assert np.array_equal(a.duals, b.duals)


def test_iteration_cap_reports_failure_with_residuals(monkeypatch):
    monkeypatch.setattr(cs, "MAX_ITERS", 2)
    rng = np.random.default_rng(37)
    prob = ConicProblem([Block(PSD, 3)])
    prob.add_constraint({0: _rand_psd(rng, 3, 0.2)}, ">=", 1.0)
    prob.set_objective({0: _rand_psd(rng, 3, 0.1)})
    sol = cs.solve(prob)
    assert sol.status == cs.NUMERICAL_FAILURE
    assert "iteration limit" in sol.message
    assert np.isfinite(sol.residual_primal) and sol.residual_primal > 0


def _small_mixed_program():
    rng = np.random.default_rng(41)
    prob = ConicProblem([Block(NONNEG, 2), Block(PSD, 2), Block(PSD, 3)])
    prob.add_constraint({0: np.array([1.0, 0.5]), 1: _rand_psd(rng, 2)}, ">=", 1.0)
    prob.add_constraint({2: _rand_psd(rng, 3, 0.1)}, ">=", 2.0)
    prob.add_constraint({1: np.eye(2, dtype=complex), 2: np.eye(3, dtype=complex)}, "<=", 50.0)
    prob.set_objective({0: np.ones(2), 1: np.eye(2, dtype=complex), 2: _rand_psd(rng, 3, 0.5)})
    return prob


# Normal-equation solves of the first iteration, in order: the tau column's
# y1, the predictor's y0, the corrector's y0.  "factor" fails the Cholesky
# factorization itself.
@pytest.mark.parametrize("fail_at,outcome,message", [
    ("factor", "raise", "singular normal equations"),
    (0, "raise", "singular normal equations"),
    (0, "nan", "degenerate tau step"),
    (1, "raise", "non-finite search direction"),
    (1, "nan", "non-finite search direction"),
    (2, "raise", "non-finite search direction"),
    (2, "nan", "non-finite search direction"),
])
def test_failed_normal_equations_end_the_solve_with_the_start_residuals(
        monkeypatch, fail_at, outcome, message):
    prob = _small_mixed_program()
    with monkeypatch.context() as m:
        m.setattr(cs, "MAX_ITERS", 0)
        start = cs.solve(prob)          # the start point's residuals
    assert start.message == "iteration limit reached"

    calls = []

    class Failing(cs._NormalEquations):
        def __init__(self, M):
            if fail_at == "factor":
                raise np.linalg.LinAlgError("factorization refused")
            super().__init__(M)

        def solve(self, rhs):
            calls.append(len(calls))
            if calls[-1] == fail_at:
                if outcome == "raise":
                    raise ValueError("non-finite right-hand side")
                return np.full_like(rhs, np.nan)
            return super().solve(rhs)

    monkeypatch.setattr(cs, "_NormalEquations", Failing)
    sol = cs.solve(prob)
    assert sol.status == cs.NUMERICAL_FAILURE
    assert sol.message == message
    assert len(calls) == (0 if fail_at == "factor" else fail_at + 1)
    assert sol.iterations == 0
    assert sol.block_values is None and sol.duals is None
    residuals = (sol.residual_primal, sol.residual_dual, sol.residual_gap)
    assert residuals == (start.residual_primal, start.residual_dual, start.residual_gap)
    assert all(np.isfinite(r) and r > 0 for r in residuals)
    # Unpatched, the same program solves.
    monkeypatch.undo()
    assert cs.solve(prob).status == cs.OPTIMAL


def test_a_problem_without_constraints_is_refused():
    prob = ConicProblem([Block(NONNEG, 2), Block(PSD, 2)])
    prob.set_objective({0: np.ones(2), 1: np.eye(2, dtype=complex)})
    with pytest.raises(InvalidInputError, match="no constraints"):
        cs.solve(prob)


# ---------------------------------------------------------------------------
# Problem container validation
# ---------------------------------------------------------------------------

def test_non_hermitian_coefficient_is_rejected():
    prob = ConicProblem([Block(PSD, 2)])
    bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(InvalidInputError):
        prob.add_constraint({0: bad}, ">=", 1.0)


def test_dimension_mismatch_is_rejected():
    prob = ConicProblem([Block(NONNEG, 2)])
    with pytest.raises(InvalidInputError):
        prob.add_constraint({0: np.ones(3)}, "<=", 1.0)
    with pytest.raises(InvalidInputError):
        prob.add_constraint({1: np.ones(2)}, "<=", 1.0)
    for sense in ("<", "=="):
        with pytest.raises(InvalidInputError):
            prob.add_constraint({0: np.ones(2)}, sense, 1.0)


def test_hermitian_coefficients_are_stored_once():
    # One cap matrix shared by every block of a row is stored as given, not
    # copied per block.
    prob = ConicProblem([Block(PSD, 3) for _ in range(4)])
    Q = np.zeros((3, 3), dtype=complex)
    Q[1, 1] = 1.0
    row = prob.add_constraint({b: Q for b in range(4)}, "<=", 1.0)
    assert all(coeff is Q for coeff in prob.constraints[row].coeffs.values())


def test_nearly_hermitian_coefficient_is_stored_symmetrized():
    rng = np.random.default_rng(41)
    H = _rand_psd(rng, 3)
    H[0, 1] += 1e-14
    assert 0 < np.abs(H - H.conj().T).max() <= 1e-12 * np.abs(H).max()
    prob = ConicProblem([Block(PSD, 3)])
    row = prob.add_constraint({0: H}, ">=", 1.0)
    stored = prob.constraints[row].coeffs[0]
    assert stored is not H
    assert np.array_equal(stored, stored.conj().T)
    assert np.array_equal(stored, 0.5 * (H + H.conj().T))


# ---------------------------------------------------------------------------
# PSD blocks stacked by size
# ---------------------------------------------------------------------------

# Sizes and kinds interleaved, so that each size group gathers blocks from
# scattered coordinates.
INTERLEAVED = [(PSD, 3), (NONNEG, 2), (PSD, 1), (PSD, 3), (PSD, 2), (PSD, 1)]


def _interleaved_data():
    """Per block: objective C, row vector a and rhs r of the row a^H X a >= r
    (for the NONNEG block: min x0 + 2 x1 s.t. x0 + x1 >= 1)."""
    rng = np.random.default_rng(53)
    data = []
    for kind, d in INTERLEAVED:
        if kind == NONNEG:
            data.append((np.array([1.0, 2.0]), np.ones(2), 1.0))
        else:
            a = rng.normal(size=d) + 1j * rng.normal(size=d)
            data.append((_rand_psd(rng, d, 0.5), a, rng.uniform(0.5, 2.0)))
    return data


def _interleaved_program(order):
    """The INTERLEAVED program with block order[i] of it at position i, and one
    inactive row over all blocks."""
    data = _interleaved_data()
    prob = ConicProblem([Block(*INTERLEAVED[o]) for o in order])
    coupling = {}
    for pos, o in enumerate(order):
        C, a, r = data[o]
        if INTERLEAVED[o][0] == NONNEG:
            prob.add_constraint({pos: a}, ">=", r)
            coupling[pos] = np.ones(2)
        else:
            prob.add_constraint({pos: np.outer(a, a.conj())}, ">=", r)
            coupling[pos] = np.eye(len(a), dtype=complex)
    prob.add_constraint(coupling, "<=", 1e3)
    prob.set_objective({pos: data[o][0] for pos, o in enumerate(order)})
    return prob


def test_interleaved_blocks_come_back_in_the_callers_order():
    sol = cs.solve(_interleaved_program(range(len(INTERLEAVED))))
    assert sol.status == cs.OPTIMAL
    assert [v.shape for v in sol.block_values] == [(2,) if kind == NONNEG else (d, d)
                                                    for kind, d in INTERLEAVED]
    # Each block's own optimum in closed form: x = (1, 0) for the orthant, and
    # X = r C^-1 a a^H C^-1 / (a^H C^-1 a)^2 of cost r / (a^H C^-1 a) for a PSD block.
    total = 0.0
    for (kind, _d), (C, a, r), X in zip(INTERLEAVED, _interleaved_data(), sol.block_values):
        if kind == NONNEG:
            expected, cost = np.array([1.0, 0.0]), 1.0
        else:
            Ca = np.linalg.solve(C, a)
            q = float(np.real(a.conj() @ Ca))
            expected, cost = r * np.outer(Ca, Ca.conj()) / q ** 2, r / q
        assert np.abs(X - expected).max() <= 1e-6 * max(1.0, np.abs(expected).max())
        total += cost
    assert abs(sol.primal_objective - total) <= 1e-8 * total


@pytest.mark.parametrize("seed", [0, 1])
def test_a_one_by_one_psd_block_is_solved_as_an_orthant_coordinate(seed):
    # The same program with its scalar variable once as a 1 x 1 PSD block and
    # once as a nonnegative entry: both cones are [0, inf), so the standard
    # form is the same, the scalar gets no PSD group (no factorization, SVD or
    # eigvalsh in any iteration), and the answers agree.
    rng = np.random.default_rng(seed)
    C, E = _rand_psd(rng, 2, 0.5), _rand_psd(rng, 2, 0.1)
    a = rng.normal(size=2) + 1j * rng.normal(size=2)

    def program(scalar):
        prob = ConicProblem([Block(PSD, 2), scalar])
        one = np.ones((1, 1), dtype=complex) if scalar.kind == PSD else np.ones(1)
        prob.add_constraint({0: np.outer(a, a.conj())}, ">=", 1.0)
        prob.add_constraint({0: E, 1: 2.0 * one}, ">=", 20.0)
        prob.add_constraint({0: np.eye(2, dtype=complex), 1: one}, "<=", 50.0)
        prob.set_objective({0: C, 1: 0.1 * one})
        return prob

    psd, nonneg = program(Block(PSD, 1)), program(Block(NONNEG, 1))
    sf_psd, sf_nonneg = cs._standard_form(psd), cs._standard_form(nonneg)
    assert [d for d, _ in sf_psd.psd_groups] == [2]
    assert np.array_equal(sf_psd.nn_idx, sf_nonneg.nn_idx)
    assert np.array_equal(sf_psd.A, sf_nonneg.A) and np.array_equal(sf_psd.c, sf_nonneg.c)
    a_sol, b_sol = cs.solve(psd), cs.solve(nonneg)
    assert a_sol.status == b_sol.status == cs.OPTIMAL
    assert a_sol.primal_objective == pytest.approx(b_sol.primal_objective, rel=1e-9)
    assert np.all(b_sol.duals[:2] > 1e-3)
    assert np.allclose(a_sol.duals, b_sol.duals, rtol=1e-9, atol=1e-9 * np.abs(b_sol.duals).max())
    assert a_sol.block_values[1].shape == (1, 1)
    assert a_sol.block_values[1][0, 0] == pytest.approx(b_sol.block_values[1][0], rel=1e-9)


def test_permuted_blocks_give_the_same_optimum():
    base = cs.solve(_interleaved_program(range(len(INTERLEAVED))))
    order = [5, 3, 1, 4, 0, 2]
    perm = cs.solve(_interleaved_program(order))
    assert perm.status == cs.OPTIMAL
    assert abs(perm.primal_objective - base.primal_objective) <= 1e-8 * abs(base.primal_objective)
    for pos, o in enumerate(order):
        assert np.abs(perm.block_values[pos] - base.block_values[o]).max() <= 1e-6


def test_schur_complement_matches_h_applied_row_by_row():
    # Orthant, 1x1, 2x2 and 3x3 blocks; rank-one, full-rank, indefinite and
    # zero coefficients; one coefficient on two rows and two blocks; both
    # senses.  At a random interior point the Schur complement assembled from
    # the rows' rank-one terms is A H A^T formed row by row.
    rng = np.random.default_rng(67)
    prob = ConicProblem([Block(NONNEG, 2), Block(PSD, 1), Block(PSD, 2),
                         Block(PSD, 3), Block(PSD, 3), Block(PSD, 2)])
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    shared = np.outer(a, a.conj())
    indefinite = _rand_psd(rng, 3) - _rand_psd(rng, 3)
    prob.add_constraint({0: np.array([1.0, 2.0]), 3: shared, 4: shared}, ">=", 1.0)
    prob.add_constraint({1: np.ones((1, 1)), 2: _rand_psd(rng, 2, 0.5), 3: shared}, "<=", 5.0)
    prob.add_constraint({2: np.eye(2, dtype=complex), 4: indefinite,
                         5: np.zeros((2, 2), dtype=complex)}, ">=", 0.5)
    prob.add_constraint({0: np.array([0.0, 3.0]), 5: _rand_psd(rng, 2)}, "<=", 2.0)
    sf = cs._standard_form(prob)
    assert [d for d, _ in sf.psd_groups] == [2, 3]

    x, z = np.zeros(sf.A.shape[1]), np.zeros(sf.A.shape[1])
    for v in (x, z):
        v[sf.nn_idx] = rng.uniform(0.5, 2.0, len(sf.nn_idx))
        for d, idx in sf.psd_groups:
            v[idx] = cs.svec(np.stack([_rand_psd(rng, d, 0.1) for _ in idx]))
    sc = cs._Scaling(sf, x, z)
    reference = np.array([sf.A @ sc.apply_H(row) for row in sf.A])
    assert np.abs(sc.schur() - reference).max() <= 1e-12 * np.abs(reference).max()


def test_psd_factor_takes_eigh_only_for_the_block_whose_cholesky_fails(monkeypatch):
    rng = np.random.default_rng(61)
    X = np.stack([_rand_psd(rng, 3, 0.5) for _ in range(4)])
    w, V = np.linalg.eigh(X[2])
    X[2] = (V * np.array([-1.0, 0.5, 2.0])) @ V.conj().T       # indefinite
    X[2] = 0.5 * (X[2] + X[2].conj().T)
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.copy()) or eigh(M))

    F = cs._psd_factor(X)
    assert len(calls) == 1 and np.array_equal(calls[0], X[2])
    for i in (0, 1, 3):
        assert np.array_equal(F[i], np.linalg.cholesky(X[i]))
    w, V = eigh(X[2])
    floor = max(np.abs(w).max(), 1.0) * 1e-14
    clamped = (V * np.maximum(w, floor)) @ V.conj().T
    assert np.abs(F[2] @ F[2].conj().T - clamped).max() <= 1e-12 * np.abs(clamped).max()

    # A positive definite stack is factored in one call, with each matrix's own bits.
    calls.clear()
    pd = np.delete(X, 2, axis=0)
    F = cs._psd_factor(pd)
    assert not calls
    assert all(np.array_equal(F[i], np.linalg.cholesky(pd[i])) for i in range(len(pd)))
