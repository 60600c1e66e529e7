"""Exact coordination: relaxation structure, repair, duals, assignment cases."""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import loose_hardware, make_channels
from softcell import conic_solver as cs
from softcell import coordination
from softcell.cli import desk_config, full_paper_config
from softcell.coordination import (BS_ONLY, MULTIFLOW, SINGLE_SCA,
                                   CoordinationProblem, DualCertificate, _finish,
                                   antenna_caps, build_relaxation, classify_assignment,
                                   regularized_inverse, repair_rank, solve_optimal,
                                   verify_duality)
from softcell.evaluation import evaluate
from softcell.exceptions import (InfeasibleProblemError, InvalidInputError,
                                 NumericalFailureError, RzfInfeasibleError)
from softcell.power import HardwareProfile, circuit_power
from softcell.rzf import rzf_solve
from softcell.scenario import ScenarioConfig, realize_scenario
from softcell.simulate import run_trial, with_axis_value


def rand_instance(rng, K, antennas, gamma, sigma2=1.0, hw=None):
    h_rows = [[(rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2.0)
               for n in antennas] for _ in range(K)]
    ch = make_channels(h_rows, [sigma2] * K)
    hw = hw if hw is not None else loose_hardware(len(antennas))
    return CoordinationProblem(ch, hw, tuple(gamma))


def full_relaxation(prob):
    """The relaxation that holds every cap (identity bases at every transmitter)."""
    return build_relaxation(prob, set(antenna_caps(prob)))


# ---------------------------------------------------------------------------
# Closed-form single-user behaviour
# ---------------------------------------------------------------------------

def test_single_user_emits_the_sinr_scaled_noise_power(single_user_unit_channel):
    hw = loose_hardware(1, rho=2.0)
    prob = CoordinationProblem(single_user_unit_channel, hw, (2.0,))
    sol, cert = solve_optimal(prob)
    # gamma = 2 -> SINR target 3; unit channel and unit noise -> 3 mW emitted.
    assert sol.p[0, 0] == pytest.approx(3.0, rel=1e-6)
    assert sol.objective_dynamic == pytest.approx(6.0, rel=1e-6)
    assert sol.objective_total == pytest.approx(6.0, rel=1e-6)
    # The beamformer is a matched filter up to phase.
    h = single_user_unit_channel.H[0][:, 0]
    w = sol.w[0][:, 0]
    cos2 = abs(np.vdot(h, w)) ** 2 / (np.vdot(h, h).real * np.vdot(w, w).real)
    assert cos2 == pytest.approx(1.0, abs=1e-9)
    # Certificate: lambda = rho * target * sigma^2 / ||h||^2, and the duality
    # identity evaluates to the target on both sides.
    assert cert.lam[0] == pytest.approx(6.0, rel=1e-4)
    report = verify_duality(sol, cert, prob)
    assert report.max_residual <= 1e-6
    assert not report.skipped


def test_zero_targets_cost_only_static_power():
    ch = make_channels([[np.array([1.0, 0.5j])], [np.array([0.3, 0.2])]], [1.0, 1.0])
    hw = loose_hardware(1, eta=5.0)
    prob = CoordinationProblem(ch, hw, (0.0, 0.0))
    sol, cert = solve_optimal(prob)
    assert sol.objective_dynamic == 0.0
    assert sol.objective_static == pytest.approx(5.0 * 2 / 600.0, rel=1e-12)
    assert sol.objective_total == sol.objective_static
    assert all(s == () for s in sol.serving)
    assert np.all(cert.lam == 0.0)
    # The same holds with every cap at zero, and without any antenna, where no
    # transmitter can serve.
    sol, cert = solve_optimal(CoordinationProblem(ch, loose_hardware(1, cap=0.0), (0.0, 0.0)))
    assert sol.objective_dynamic == 0.0
    bare = make_channels([[np.zeros(0)], [np.zeros(0)]], [1.0, 1.0])
    sol, cert = solve_optimal(CoordinationProblem(bare, hw, (0.0, 0.0)))
    assert sol.objective_total == 0.0
    assert np.all(cert.lam == 0.0)


def test_static_power_counts_each_small_cells_antennas():
    # Small cells with 1 and 3 antennas: (10*2 + 20*1 + 30*3) / 1 = 130 mW.
    rng = np.random.default_rng(11)
    hw = HardwareProfile(rho=(2.0, 2.0, 2.0), eta=(10.0, 20.0, 30.0),
                         per_antenna_limit=(1e6, 1e6, 1e6), subcarriers=1)
    prob = rand_instance(rng, 2, [2, 1, 3], (1.0, 1.0), hw=hw)
    sol, _ = solve_optimal(prob)
    assert sol.objective_static == pytest.approx(130.0, rel=1e-12)
    assert evaluate(sol, prob.channels, hw, prob.gamma).p_static_mw == pytest.approx(130.0, rel=1e-12)
    assert rzf_solve(prob).objective_static == pytest.approx(130.0, rel=1e-12)


def test_static_power_term_matches_the_topology():
    rng = np.random.default_rng(1)
    prob = rand_instance(rng, 2, [3, 2, 2], (1.0, 1.0), hw=loose_hardware(3, eta=6.0))
    sol, _ = solve_optimal(prob)
    assert sol.objective_static == pytest.approx(
        circuit_power(prob.hw, (3, 2, 2)), rel=1e-12)
    assert sol.objective_total == pytest.approx(
        sol.objective_dynamic + sol.objective_static, rel=1e-12)


# ---------------------------------------------------------------------------
# Relaxation structure
# ---------------------------------------------------------------------------

def test_relaxation_counts_blocks_and_rows(single_user_unit_channel):
    prob = CoordinationProblem(single_user_unit_channel, loose_hardware(1), (2.0,))
    relax = full_relaxation(prob)
    assert len(relax.conic.blocks) == 1
    assert list(relax.qos_row) == [0]
    assert sorted(relax.power_row) == [(0, 0), (0, 1)]
    assert prob.gtilde[0] == pytest.approx(3.0, rel=1e-15)


def test_relaxation_skips_users_without_targets():
    rng = np.random.default_rng(2)
    prob = rand_instance(rng, 3, [2, 2], (2.0, 0.0, 1.0))
    relax = full_relaxation(prob)
    # Users 0 and 2 get one block per transmitter; user 1 none.
    assert len(relax.conic.blocks) == 4
    assert sorted(relax.block_of) == [(0, 0), (0, 1), (2, 0), (2, 1)]
    assert sorted(relax.qos_row) == [0, 2]
    sol, cert = solve_optimal(prob)
    assert sol.serving[1] == ()
    assert all(np.abs(w_j[:, 1]).max() == 0.0 for w_j in sol.w)
    report = verify_duality(sol, cert, prob)
    assert 1 in report.skipped
    assert np.isnan(report.residual[1])
    assert report.max_residual <= 1e-4


def _row_value(coeffs, blocks):
    """sum_B <coeff_B, X_B> of one row or objective at the blocks X_B."""
    return sum(np.trace(coeffs[b] @ blocks[b]).real for b in coeffs)


def test_a_rank_deficient_stack_keeps_every_channel_and_cap_direction(monkeypatch):
    # Two users with one and the same 4-antenna channel, and the cap of
    # antenna 0 seeded: [h, h, e_0] has rank 2 by the matrix_rank cutoff, so
    # the blocks are 2 x 2 and Q spans h and e_0.
    h = np.array([0.6, 0.3j, -0.5, 0.2 + 0.4j])
    ch = make_channels([[h], [h]], [1.0, 0.5])
    hw = HardwareProfile(rho=(2.0,), eta=(0.0,), per_antenna_limit=(0.05,))
    prob = CoordinationProblem(ch, hw, (0.4, 0.4))
    stack = np.column_stack([h, h, np.eye(4)[0]])
    assert np.linalg.matrix_rank(stack) == 2
    relax = build_relaxation(prob, {(0, 0)})
    Q = relax.basis[0]
    assert Q.shape == (4, 2) and [b.dim for b in relax.conic.blocks] == [2, 2]
    assert np.allclose(Q.conj().T @ Q, np.eye(2), rtol=0, atol=1e-14)
    assert np.allclose(Q @ (Q.conj().T @ stack), stack, rtol=0, atol=1e-14)

    # The same program on full 4 x 4 blocks: each row and the objective read
    # at the lifted Q X Q^H what the subspace program reads at X.
    monkeypatch.setattr(coordination, "channel_subspace",
                        lambda H, antennas: np.eye(H.shape[0], dtype=complex))
    full = build_relaxation(prob, {(0, 0)})
    assert [b.dim for b in full.conic.blocks] == [4, 4]
    rng = np.random.default_rng(3)
    X = [A @ A.conj().T for A in rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))]
    W = [Q @ X_b @ Q.conj().T for X_b in X]
    for sub_row, full_row in zip(relax.conic.constraints, full.conic.constraints, strict=True):
        assert _row_value(sub_row.coeffs, X) == pytest.approx(_row_value(full_row.coeffs, W),
                                                              rel=1e-12)
    assert _row_value(relax.conic.objective, X) == pytest.approx(
        _row_value(full.conic.objective, W), rel=1e-12)

    # The lifted optimum of the subspace program meets every original row,
    # with the cap binding.
    sol = cs.solve(relax.conic)
    assert sol.status == cs.OPTIMAL
    W = [Q @ X_b @ Q.conj().T for X_b in sol.block_values]
    qos_0, qos_1, cap = (_row_value(row.coeffs, W) for row in full.conic.constraints)
    assert min(qos_0, qos_1) >= 1.0 - 1e-8
    assert cap == pytest.approx(0.05, rel=1e-7)


def test_problem_validation():
    ch = make_channels([[np.array([1.0 + 0j])]], [1.0])
    with pytest.raises(InvalidInputError):
        CoordinationProblem(ch, loose_hardware(1), (2.0, 2.0))
    ch2 = make_channels([[np.array([1.0 + 0j]), np.array([1.0 + 0j])]], [1.0])
    with pytest.raises(InvalidInputError):
        CoordinationProblem(ch2, loose_hardware(1), (2.0,))


# ---------------------------------------------------------------------------
# Infeasibility
# ---------------------------------------------------------------------------

def test_unreachable_target_raises_with_certificate():
    ch = make_channels([[np.array([1.0 + 0j])]], [1.0])
    hw = HardwareProfile(rho=(2.0,), eta=(0.0,), per_antenna_limit=(1.0,))
    prob = CoordinationProblem(ch, hw, (2.0,))  # needs 3 mW through a 1 mW cap
    with pytest.raises(InfeasibleProblemError) as exc:
        solve_optimal(prob)
    assert exc.value.certificate is not None


def test_a_network_without_antennas_cannot_serve_a_target():
    bare = make_channels([[np.zeros(0)], [np.zeros(0)]], [1.0, 1.0])
    prob = CoordinationProblem(bare, loose_hardware(1), (1.0, 0.0))
    with pytest.raises(InfeasibleProblemError) as exc:
        solve_optimal(prob)
    # The relaxation's one row, user 0's QoS row, reads 0 >= 1.
    assert np.array_equal(exc.value.certificate, [1.0])
    with pytest.raises(RzfInfeasibleError):
        rzf_solve(prob)


def test_a_beam_over_a_per_antenna_cap_is_refused():
    # Antenna 1 of transmitter 1 emits 2 mW through a 1 mW cap.
    hw = HardwareProfile(rho=(2.0, 2.0), eta=(0.0, 0.0), per_antenna_limit=(1e6, 1.0))
    prob = rand_instance(np.random.default_rng(12), 1, [2, 2], (0.0,), hw=hw)
    w = [np.zeros((2, 1), dtype=complex), np.array([[0.5], [np.sqrt(2.0)]], dtype=complex)]
    with pytest.raises(NumericalFailureError, match="cap of antenna 1 at transmitter 1"):
        _finish(w, prob)


# ---------------------------------------------------------------------------
# Rank repair
# ---------------------------------------------------------------------------

def _repair_full(prob, W):
    """repair_rank of the blocks W[k][j], read as the solved blocks of the
    full program, whose bases are the identity at every transmitter."""
    relax = full_relaxation(prob)
    assert all(np.array_equal(Q, np.eye(len(Q))) for Q in relax.basis.values())
    blocks = [None] * len(relax.conic.blocks)
    for (k, j), b in relax.block_of.items():
        blocks[b] = W[k][j]
    return repair_rank(relax, blocks, prob)


def test_repair_is_identity_on_rank_one_blocks():
    rng = np.random.default_rng(3)
    prob = rand_instance(rng, 2, [2, 2], (1.0, 1.0))
    v = [[(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(2)]
         for _ in range(2)]
    W = [[np.outer(v[k][j], v[k][j].conj()) for j in range(2)] for k in range(2)]
    w = _repair_full(prob, W)
    for k in range(2):
        for j in range(2):
            rank_one = np.outer(w[j][:, k], w[j][:, k].conj())
            assert np.abs(rank_one - W[k][j]).max() <= 1e-10 * np.abs(W[k][j]).max()


def test_a_negligible_relaxed_block_is_repaired_then_dropped_by_finish():
    # repair_rank has no residue rule of its own: the 1e-9 I block at
    # transmitter 1 repairs to a beam with the same own signal, 1e-9 mW, that
    # is 5e-10 of the 2 mW the user receives from transmitter 0.  Below
    # SERVING_SHARE of its user's signal, _finish zeroes it as residue, so the
    # user is served by transmitter 0 alone.
    h0, h1 = np.array([0.6, 0.8j]), np.array([1.0 + 0j, 0.0])
    prob = CoordinationProblem(make_channels([[h0, h1]], [1.0]), loose_hardware(2), (1.0,))
    w = _repair_full(prob, [[2.0 * np.eye(2, dtype=complex), 1e-9 * np.eye(2, dtype=complex)]])
    assert np.linalg.norm(w[1][:, 0]) ** 2 == pytest.approx(1e-9, rel=1e-12)
    sol = _finish(w, prob)
    assert np.all(sol.w[1] == 0.0)
    assert np.array_equal(sol.w[0], w[0])
    assert sol.serving == [(0,)]
    assert sol.objective_dynamic == pytest.approx(2.0 * 2.0, rel=1e-12)


@pytest.mark.parametrize("rank", [2, 3])
def test_repair_of_higher_rank_blocks_is_closed_form(monkeypatch, rank):
    # Without solving anything, w = W h / sqrt(h^H W h) keeps the own signal
    # and gives w w^H <= W, so no antenna power and no other user's gain grows.
    def no_solve(problem):
        raise AssertionError("rank repair must not solve a program")
    monkeypatch.setattr(coordination.cs, "solve", no_solve)
    rng = np.random.default_rng(17 + rank)
    K, antennas = 3, [3, 3]
    prob = rand_instance(rng, K, antennas, (1.0, 2.0, 1.5))
    W = []
    for _ in range(K):
        row = []
        for n in antennas:
            F = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
            row.append(F @ F.conj().T)
        W.append(row)
    w = _repair_full(prob, W)
    for k in range(K):
        for j in range(len(antennas)):
            Wkj, v = W[k][j], w[j][:, k]
            assert np.linalg.matrix_rank(Wkj) == rank
            scale = np.linalg.norm(Wkj, 2)
            assert np.linalg.eigvalsh(Wkj - np.outer(v, v.conj())).min() >= -1e-12 * scale
            H = prob.channels.H[j]
            own_W = np.real(H[:, k].conj() @ Wkj @ H[:, k])
            assert abs(abs(H[:, k].conj() @ v) ** 2 - own_W) <= 1e-12 * own_W
            for i in range(K):
                if i != k:
                    gain_W = np.real(H[:, i].conj() @ Wkj @ H[:, i])
                    slack = 1e-12 * scale * np.linalg.norm(H[:, i]) ** 2
                    assert abs(H[:, i].conj() @ v) ** 2 <= gain_W + slack
            assert np.all(np.abs(v) ** 2 <= np.real(np.diag(Wkj)) + 1e-12 * scale)


def test_repair_in_a_seeded_basis_matches_lift_then_repair():
    # A seeded program holding one BS cap: each BS block is X in a 6 x 3
    # basis Q of span(h_0, h_1, e_0), each small-cell block in a 3 x 2 basis
    # of span(h_0, h_1).  Repair reads X in its own coordinates,
    # w = Q (X c) / sqrt(c^H X c) with c = Q^H h, which is W h / sqrt(h^H W h)
    # of the lifted W = Q X Q^H.
    rng = np.random.default_rng(29)
    prob = rand_instance(rng, 2, [6, 3], (1.0, 2.0))
    relax = build_relaxation(prob, {(0, 0)})
    assert [relax.basis[j].shape for j in (0, 1)] == [(6, 3), (3, 2)]
    blocks = []
    for block in relax.conic.blocks:
        F = rng.normal(size=(block.dim, 2)) + 1j * rng.normal(size=(block.dim, 2))
        blocks.append(F @ F.conj().T)
    w = repair_rank(relax, blocks, prob)
    for (k, j), b in relax.block_of.items():
        Q, h = relax.basis[j], prob.channels.H[j][:, k]
        W = Q @ blocks[b] @ Q.conj().T
        lifted = W @ h / np.sqrt(np.real(h.conj() @ W @ h))
        assert np.linalg.norm(w[j][:, k] - lifted) <= 1e-14 * np.linalg.norm(lifted)


@pytest.mark.parametrize("null", ["zero", "orthogonal_to_h"])
def test_a_block_without_own_signal_repairs_to_no_beam(null):
    # The block at transmitter 1 gives the user no signal, h^H W h = 0 with
    # h = e_0: W = 0, or W = 3 e_1 e_1^H.  The only beam with w w^H <= W and
    # that own signal is zero, so its column stays zero; it is never divided
    # by sqrt(0) (a RuntimeWarning fails the test).  Transmitter 0 is repaired.
    h0, h1 = np.array([0.6, 0.8j]), np.array([1.0 + 0j, 0.0])
    prob = CoordinationProblem(make_channels([[h0, h1]], [1.0]), loose_hardware(2), (1.0,))
    W1 = {"zero": np.zeros((2, 2), dtype=complex),
          "orthogonal_to_h": np.diag([0.0, 3.0]).astype(complex)}[null]
    w = _repair_full(prob, [[2.0 * np.eye(2, dtype=complex), W1]])
    assert np.all(w[1][:, 0] == 0.0)
    assert np.linalg.norm(w[0][:, 0]) ** 2 == pytest.approx(2.0, rel=1e-12)


def test_gain_maximization_under_trace_budget_concentrates_power():
    # max h^H V h with tr V <= 2 puts everything on the channel direction.
    from softcell import conic_solver as cs
    from softcell.conic_problem import PSD, Block, ConicProblem

    h = np.array([1.0, 0.0], dtype=complex)
    prob = ConicProblem([Block(PSD, 2)])
    prob.add_constraint({0: np.eye(2, dtype=complex)}, "<=", 2.0)
    prob.set_objective({0: -np.outer(h, h.conj())})
    sol = cs.solve(prob)
    assert sol.status == cs.OPTIMAL
    assert np.abs(sol.block_values[0] - np.diag([2.0, 0.0])).max() < 1e-6


def _assert_fields_derive_from_beams(sol, prob):
    report = evaluate(sol, prob.channels, prob.hw, prob.gamma)
    assert sol.serving == report.serving
    assert [w_j.shape for w_j in sol.w] == [(n, len(prob.gamma))
                                            for n in prob.channels.antenna_counts]
    for j, w_j in enumerate(sol.w):
        for k in range(w_j.shape[1]):
            assert sol.p[k, j] == pytest.approx(np.linalg.norm(w_j[:, k]) ** 2, rel=1e-12, abs=0.0)


def test_solutions_are_rank_one_and_objective_preserving():
    rng = np.random.default_rng(5)
    heuristic_solved = 0
    for _ in range(6):
        K = int(rng.integers(1, 3))
        prob = rand_instance(rng, K, [3, 2], tuple(rng.uniform(0.5, 2.5, size=K)))
        sol, _ = solve_optimal(prob)
        dyn, bound = sol.objective_dynamic, sol.objective_relaxation
        assert abs(dyn - bound) <= cs.CERT_GAP * max(1.0, abs(dyn), abs(bound))
        report = evaluate(sol, prob.channels, prob.hw, prob.gamma)
        assert np.all(report.sinr >= prob.gtilde * (1.0 - 1e-6))
        # One column per link in each (antennas, K) stack: rank one by layout.
        _assert_fields_derive_from_beams(sol, prob)
        try:
            heuristic = rzf_solve(prob)
        except RzfInfeasibleError:
            continue
        _assert_fields_derive_from_beams(heuristic, prob)
        heuristic_solved += 1
    assert heuristic_solved


# ---------------------------------------------------------------------------
# The finishing step every solver shares: residue and gap rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("along_channel", [False, True])
def test_finish_zeroes_residue_links_in_a_copy(along_channel):
    # User 0 is served by transmitter 0 with 1.5 mW of signal; user 1 draws
    # 2e3 mW, so the cost of user 0's 5e-6 mW beam at transmitter 1 is
    # negligible beside the total.  Orthogonal to the user's channel that beam
    # delivers no signal and is residue; along the channel it delivers 3.3e-6
    # of the user's signal, above SERVING_SHARE, and stays a serving link.
    e0, e1 = np.array([1.0 + 0j, 0.0]), np.array([0.0, 1.0 + 0j])
    prob = CoordinationProblem(make_channels([[e0, e0], [e1, e1]], [1.0, 1e3]),
                               loose_hardware(2), (1.0, 1.0))
    extra = np.sqrt(5e-6) * (e0 if along_channel else e1)
    w = [np.column_stack([np.sqrt(1.5) * e0, np.sqrt(2e3) * e1]),
         np.column_stack([extra, np.zeros(2)])]
    given = [w_j.copy() for w_j in w]
    sol = _finish(w, prob)
    assert all(np.array_equal(a, b) for a, b in zip(w, given))
    if along_channel:
        assert sol.serving[0] == (0, 1)
        assert np.array_equal(sol.w[1], given[1])
    else:
        assert sol.serving[0] == (0,)
        assert np.all(sol.w[1] == 0.0)
        assert sol.objective_dynamic == pytest.approx(2.0 * (1.5 + 2e3), rel=1e-15)


@pytest.mark.parametrize("main,extra,served", [
    # (channel gain, mW) of the user's link at transmitter 0, then at 1.  The
    # extra 1e-3 mW is 6.7e-4 of the emitted power, but its 1e-7 mW of signal
    # (far above the noise-level 1e-8 mW) is 6.7e-8 of the 1.5 mW received.
    ((1.0, 1.5), (1e-4, 1e-3), (0,)),
    # The mirror image: 6.7e-8 of the emitted power, 6.7e-4 of the signal.
    ((1e-4, 1.5e4), (1.0, 1e-3), (0, 1)),
], ids=["power_share_without_signal", "signal_share_without_power"])
def test_a_link_serves_by_its_share_of_the_received_signal(main, extra, served):
    e0 = np.array([1.0 + 0j, 0.0])
    prob = CoordinationProblem(
        make_channels([[np.sqrt(main[0]) * e0, np.sqrt(extra[0]) * e0]], [1.0]),
        loose_hardware(2), (1.0,))
    w = [np.sqrt(main[1]) * e0[:, None], np.sqrt(extra[1]) * e0[:, None]]
    assert evaluate(w, prob.channels, prob.hw, prob.gamma).serving == [served]
    sol = _finish(w, prob)
    assert sol.serving == [served]
    assert evaluate(sol, prob.channels, prob.hw, prob.gamma).serving == [served]
    if served == (0,):
        assert np.all(sol.w[1] == 0.0)
        assert classify_assignment(sol, prob.hw).count(MULTIFLOW) == 0
    else:
        assert np.array_equal(sol.w[1], w[1])


def test_a_sub_share_signal_link_is_not_counted_as_multiflow():
    # Criterion 7's N_BS=24, two-SCA trial 13: user 1 is served by SCA 2 and
    # its 4.2e-8 mW BS beam delivers 2.6e-8 of its signal.  Counted by emitted
    # power, that beam made user 1 multiflow with no active cap to license it.
    base = replace(desk_config(seed=101), n_bs=24)
    record = run_trial(base, "n_sca", 2, "optimal", 13)
    assert record.status == "optimal"
    assert record.n_multiflow == 1
    cfg = with_axis_value(base, "n_sca", 2)
    prob = CoordinationProblem(realize_scenario(cfg, trial=13), cfg.hardware, cfg.qos_targets)
    sol, _ = solve_optimal(prob)
    assert sol.serving[1] == (2,)
    assert not classify_assignment(sol, cfg.hardware).diagnostics


def test_rzf_power_lp_residue_is_not_counted_as_multiflow():
    # The power LP's interior iterate leaves 1e-16 to 6e-13 mW on extra links
    # of low-power users; above SERVING_SHARE of their own power, these used
    # to count as multiflow (paper trial 242: two users, both at one SCA).
    paper = run_trial(full_paper_config(), "qos", 2.0, "rzf", 242)
    assert paper.status == "optimal"
    assert (paper.n_multiflow, paper.n_sca_multiuser) == (0, 0)
    desk = run_trial(desk_config(seed=202), "qos", 1.0, "rzf", 5)
    assert desk.status == "optimal"
    assert desk.n_multiflow == 0


@pytest.mark.parametrize("qos,trial,algorithm,fallback", [
    (2.0, 0, "optimal", False), (2.0, 4, "optimal", True), (1.0, 3, "optimal", True),
    (2.0, 0, "rzf", False)])
def test_finish_evaluates_each_returned_solution_once(monkeypatch, qos, trial, algorithm,
                                                      fallback):
    # Fast path, cap ascent, relaxation fallback and rzf all leave the
    # evaluation of their beams, after the residue rule, to _finish: one per
    # candidate tried (the refused fast-path beams of a fallback included, and
    # the refused ascent answer of QoS 1.0 trial 3), and the numbers returned
    # are those of the last.
    cfg = replace(desk_config(seed=202), qos_targets=(qos,) * 6)
    prob = CoordinationProblem(realize_scenario(cfg, trial=trial), cfg.hardware, cfg.qos_targets)
    seen = []
    evaluate_ = coordination.evaluate
    monkeypatch.setattr(coordination, "evaluate",
                        lambda w, *args: (lambda r: seen.append((w, r)) or r)(evaluate_(w, *args)))
    relaxations, ascents = _recording_builds(monkeypatch), _recording_ascents(monkeypatch)
    sol = rzf_solve(prob) if algorithm == "rzf" else solve_optimal(prob)[0]
    if algorithm == "optimal":
        assert _answered_by(prob, relaxations, ascents) == (
            DESK_FALLBACKS[(qos, trial)] if fallback else "fast")
    assert len(seen) == 1 + sum(ascents) + len(relaxations)
    w, report = seen[-1]
    assert all(np.array_equal(a, b) for a, b in zip(w, sol.w))
    assert (sol.objective_dynamic, sol.objective_total) == (report.p_dynamic_mw,
                                                            report.p_total_mw)


@pytest.mark.parametrize("excess,certifies", [(1e-9, True), (1e-5, False)])
def test_fallback_cost_is_certified_within_the_gap(monkeypatch, excess, certifies):
    # Desk trial 0 at QoS 2.0 forced through the relaxation, with every
    # repaired beam scaled up: 1e-5 more power than the relaxed optimum
    # (10.7123308 mW) lies beyond CERT_GAP and is refused, 1e-9 more is not.
    cfg = replace(desk_config(seed=202), qos_targets=(2.0,) * 6)
    prob = CoordinationProblem(realize_scenario(cfg, trial=0), cfg.hardware, cfg.qos_targets)
    repair = coordination.repair_rank
    monkeypatch.setattr(coordination, "_solve_uplink", lambda problem: None)
    monkeypatch.setattr(coordination, "repair_rank", lambda *args: [
        np.sqrt(1.0 + excess) * w_j for w_j in repair(*args)])
    if certifies:
        sol, _ = solve_optimal(prob)
        assert sol.objective_dynamic == pytest.approx(
            (1.0 + excess) * sol.objective_relaxation, rel=1e-9)
    else:
        with pytest.raises(NumericalFailureError, match="certified bound"):
            solve_optimal(prob)


# ---------------------------------------------------------------------------
# Serving cases
# ---------------------------------------------------------------------------

def test_lone_macro_user_is_bs_only(single_user_unit_channel):
    prob = CoordinationProblem(single_user_unit_channel, loose_hardware(1), (2.0,))
    sol, _ = solve_optimal(prob)
    report = classify_assignment(sol, prob.hw)
    assert report.assignments[0].case == BS_ONLY
    assert report.count(BS_ONLY) == 1
    assert not report.diagnostics


def test_hotspot_user_prefers_its_small_cell():
    weak_bs = np.array([0.01, 0.01j])
    strong_sca = np.array([1.0, 1.0j])
    ch = make_channels([[weak_bs, strong_sca]], [1.0])
    prob = CoordinationProblem(ch, loose_hardware(2), (1.0,))
    sol, _ = solve_optimal(prob)
    assert sol.serving[0] == (1,)
    report = classify_assignment(sol, prob.hw)
    assert report.assignments[0].case == SINGLE_SCA


def test_multiflow_requires_an_active_cap_and_vanishes_without_it():
    # One user, two single-antenna transmitters with equal unit channels.  The
    # cheap transmitter saturates its 2 mW cap and the remainder of the 3 mW
    # SINR budget must flow through the expensive one.
    ch = make_channels([[np.array([1.0 + 0j]), np.array([1.0 + 0j])]], [1.0])
    tight = HardwareProfile(rho=(2.0, 4.0), eta=(0.0, 0.0), per_antenna_limit=(2.0, 50.0))
    prob = CoordinationProblem(ch, tight, (2.0,))
    sol, _ = solve_optimal(prob)
    assert sol.serving[0] == (0, 1)
    assert sol.p[0, 0] == pytest.approx(2.0, rel=1e-5)
    assert sol.p[0, 1] == pytest.approx(1.0, rel=1e-5)
    report = classify_assignment(sol, prob.hw)
    assert report.assignments[0].case == MULTIFLOW
    assert (0, 0) in report.assignments[0].licensed_by
    assert not report.diagnostics

    # With the cap lifted the split disappears in favour of the cheap link.
    loose = HardwareProfile(rho=(2.0, 4.0), eta=(0.0, 0.0), per_antenna_limit=(200.0, 5000.0))
    sol2, _ = solve_optimal(CoordinationProblem(ch, loose, (2.0,)))
    assert sol2.serving[0] == (0,)
    report2 = classify_assignment(sol2, loose)
    assert report2.count(MULTIFLOW) == 0


# ---------------------------------------------------------------------------
# Invariances and monotonicity
# ---------------------------------------------------------------------------

def test_powers_scale_linearly_with_noise_and_caps():
    rng = np.random.default_rng(6)
    h_rows = [[(rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2.0)
               for n in (3, 2)] for _ in range(2)]
    scale = 10.0
    base_hw = HardwareProfile(rho=(2.0, 4.0), eta=(0.0, 0.0), per_antenna_limit=(5.0, 5.0))
    scaled_hw = HardwareProfile(rho=(2.0, 4.0), eta=(0.0, 0.0),
                                per_antenna_limit=(5.0 * scale, 5.0 * scale))
    base = CoordinationProblem(make_channels(h_rows, [1.0, 1.0]), base_hw, (1.5, 1.0))
    scaled = CoordinationProblem(make_channels(h_rows, [scale, scale]), scaled_hw, (1.5, 1.0))
    sol_a, _ = solve_optimal(base)
    sol_b, _ = solve_optimal(scaled)
    assert sol_b.objective_dynamic == pytest.approx(scale * sol_a.objective_dynamic, rel=1e-5)
    assert np.allclose(sol_b.p, scale * sol_a.p, rtol=1e-4, atol=1e-9)
    assert sol_b.serving == sol_a.serving


def test_power_rises_with_a_single_users_target():
    rng = np.random.default_rng(8)
    prob1 = rand_instance(rng, 2, [3, 2], (1.0, 1.0))
    prob2 = CoordinationProblem(prob1.channels, prob1.hw, (2.0, 1.0))
    obj1 = solve_optimal(prob1)[0].objective_dynamic
    obj2 = solve_optimal(prob2)[0].objective_dynamic
    assert obj2 > obj1


def test_duality_identity_on_random_instances():
    rng = np.random.default_rng(9)
    for _ in range(4):
        K = int(rng.integers(1, 4))
        prob = rand_instance(rng, K, [3, 2], tuple(rng.uniform(0.5, 2.0, size=K)))
        sol, cert = solve_optimal(prob)
        report = verify_duality(sol, cert, prob)
        assert report.max_residual <= 1e-4


def test_duality_check_flags_a_wrong_certificate():
    rng = np.random.default_rng(9)
    prob = rand_instance(rng, 2, [3, 2], (1.5, 1.0))
    sol, cert = solve_optimal(prob)
    assert verify_duality(sol, cert, prob).max_residual <= 1e-4
    for k in range(2):
        lam = cert.lam.copy()
        lam[k] *= 2.0
        report = verify_duality(sol, DualCertificate(lam, cert.mu), prob)
        assert report.residual[k] > 1e-4

    # A binding cap: doubling its multiplier must show too.
    ch = make_channels([[np.array([1.0 + 0j]), np.array([1.0 + 0j])]], [1.0])
    tight = HardwareProfile(rho=(2.0, 4.0), eta=(0.0, 0.0), per_antenna_limit=(2.0, 50.0))
    prob = CoordinationProblem(ch, tight, (2.0,))
    sol, cert = solve_optimal(prob)
    assert cert.mu[0][0] > 0
    assert verify_duality(sol, cert, prob).max_residual <= 1e-4
    mu = [2.0 * m for m in cert.mu]
    assert verify_duality(sol, DualCertificate(cert.lam, mu), prob).max_residual > 1e-4


@pytest.mark.parametrize("caps", ["fast_path", "random"])
def test_one_uplink_round_matches_the_antenna_domain_map(caps):
    # _uplink_round's K x K form against gt_k / max_j g_kj^H B_kj^-1 g_kj
    # (g = h / sigma) formed with n x n matrices, at a random lambda with one
    # user without a target: at mu = 0, the fast path's round, and at a random
    # mu with about half the caps' mu at zero, the certificate's.  Its gains
    # are the per-link table, and D^-1 G Y are the columns C^-1 g.
    rng = np.random.default_rng(17)
    antennas = (12, 3, 1)
    prob = rand_instance(rng, 4, antennas, (1.0, 0.0, 0.5, 2.0), sigma2=0.7)
    lam = rng.uniform(0.1, 2.0, size=4) * (np.asarray(prob.gamma) > 0)
    mu = [rng.uniform(0.0, 3.0, size=n) * (rng.random(n) < 0.5) for n in antennas]
    if caps == "fast_path":
        mu = [np.zeros(n) for n in antennas]
    new, Y, gain = coordination._uplink_round(prob, lam, coordination._uplink_grams(prob, mu)[1])
    G = [H_j / np.sqrt(prob.channels.sigma2) for H_j in prob.channels.H]
    reference = np.zeros((4, len(antennas)))
    for j in range(len(antennas)):
        D = np.diag(prob.hw.rho[j] + mu[j])
        C = D + (G[j] * lam) @ G[j].conj().T
        assert np.allclose(np.linalg.solve(D, G[j] @ Y[j]), np.linalg.solve(C, G[j]),
                           rtol=1e-10, atol=0)
        for k in range(4):
            others = np.arange(4) != k
            B = D + (G[j][:, others] * lam[others]) @ G[j][:, others].conj().T
            reference[k, j] = (G[j][:, k].conj() @ np.linalg.solve(B, G[j][:, k])).real
    assert np.allclose(gain, reference, rtol=1e-10, atol=0)
    assert np.allclose(new, prob.gtilde / reference.max(axis=1), rtol=1e-10, atol=0)


def _broadcast_inverse(gram, a, r):
    """regularized_inverse in its np.broadcast_to form."""
    K = gram.shape[-1]
    a = np.broadcast_to(np.asarray(a, dtype=float), K)
    r = np.broadcast_to(np.asarray(r, dtype=float), gram.shape[:1])
    return np.linalg.inv(a[:, None] * gram + r[:, None, None] * np.eye(K))


@pytest.mark.parametrize("cfg", [desk_config(seed=202), full_paper_config()])
def test_uplink_rounds_are_the_broadcast_to_form_bit_for_bit(cfg, monkeypatch):
    # Eight rounds of the fast path's fixed point from lambda = 0, then a
    # round at a random mu as the certificate's, each against the same round
    # through the broadcast_to inverse; and rzf's form, a scalar a with one
    # r per transmitter.
    rng = np.random.default_rng(8)
    prob = CoordinationProblem(realize_scenario(cfg, 1), cfg.hardware, cfg.qos_targets)
    antennas = prob.channels.antenna_counts
    zero = [np.zeros(n) for n in antennas]
    mu = [rng.uniform(0.0, 3.0, size=n) * (rng.random(n) < 0.5) for n in antennas]
    F0, F = coordination._uplink_grams(prob, zero)[1], coordination._uplink_grams(prob, mu)[1]
    lam = np.zeros(prob.channels.num_users)
    for grams in [F0] * 8 + [F]:
        step = coordination._uplink_round(prob, lam, grams)
        with monkeypatch.context() as m:
            m.setattr(coordination, "regularized_inverse", _broadcast_inverse)
            reference = coordination._uplink_round(prob, lam, grams)
        for got, ref in zip(step, reference):
            assert got.tobytes() == ref.tobytes()
        lam = step[0]
    r = rng.uniform(0.5, 2.0, size=len(F))
    assert regularized_inverse(F, 1.0, r).tobytes() == _broadcast_inverse(F, 1.0, r).tobytes()


# ---------------------------------------------------------------------------
# Uplink fixed point: the exact path that needs no PSD solve
# ---------------------------------------------------------------------------

def _refuse_relaxation(problem, caps):
    raise AssertionError("solve_optimal built the relaxation")


def _refuse_conic_solve(problem):
    raise AssertionError("solve_optimal ran a conic solve")


def test_fixed_point_certifies_the_relaxation_optimum(monkeypatch):
    rng = np.random.default_rng(13)
    for _ in range(6):
        K = int(rng.integers(1, 5))
        prob = rand_instance(rng, K, [4, 2, 1], tuple(rng.uniform(0.5, 2.5, size=K)))
        reference = cs.solve(full_relaxation(prob).conic)
        assert reference.status == cs.OPTIMAL
        with monkeypatch.context() as m:
            m.setattr(coordination, "build_relaxation", _refuse_relaxation)
            m.setattr(cs, "solve", _refuse_conic_solve)
            sol, cert = solve_optimal(prob)
        assert sol.objective_dynamic == pytest.approx(reference.primal_objective, rel=1e-8)
        # Each QoS user is served by exactly one transmitter.
        assert all(len(sol.serving[k]) == 1 for k in prob.qos_users())
        # The reported relaxation value is the certified dual bound at mu = 0.
        assert sol.objective_relaxation == float(cert.lam.sum())
        assert all(np.all(mu_j == 0.0) for mu_j in cert.mu)
        assert verify_duality(sol, cert, prob).max_residual <= 1e-9


def test_a_binding_cap_falls_back_to_the_relaxation(monkeypatch):
    # The tight-cap instance of the multiflow test: at mu = 0 the cheap
    # transmitter alone would carry 3 mW through its 2 mW cap.
    ch = make_channels([[np.array([1.0 + 0j]), np.array([1.0 + 0j])]], [1.0])
    # With the cap ascent switched off, the seeded relaxation answers.
    tight = HardwareProfile(rho=(2.0, 4.0), eta=(0.0, 0.0), per_antenna_limit=(2.0, 50.0))
    prob = CoordinationProblem(ch, tight, (2.0,))
    _without_ascent(monkeypatch)
    built = _recording_builds(monkeypatch)
    sol, cert = solve_optimal(prob)
    assert built
    assert cert.mu[0][0] > 0
    assert sol.serving[0] == (0, 1)


def test_a_binding_cap_splits_the_tied_user_on_the_cap_ascent(monkeypatch):
    # The same instance on the cap ascent: the user ties between both
    # transmitters at mu = rho_1 - rho_0 = 2, and the cap's row splits its
    # 3 mW of received power into 2 mW from the capped transmitter and 1 mW
    # from the other, 2 * 2 + 4 * 1 = 8 mW, with no relaxation built.
    ch = make_channels([[np.array([1.0 + 0j]), np.array([1.0 + 0j])]], [1.0])
    tight = HardwareProfile(rho=(2.0, 4.0), eta=(0.0, 0.0), per_antenna_limit=(2.0, 50.0))
    prob = CoordinationProblem(ch, tight, (2.0,))
    monkeypatch.setattr(coordination, "build_relaxation", _refuse_relaxation)
    sol, cert = solve_optimal(prob)
    assert sol.serving[0] == (0, 1)
    assert sol.p[0] == pytest.approx([2.0, 1.0], rel=1e-12)
    assert sol.objective_dynamic == pytest.approx(8.0, rel=1e-12)
    assert sol.objective_relaxation == pytest.approx(8.0, rel=1e-12)
    assert cert.mu[0][0] == pytest.approx(2.0, rel=1e-12) and cert.mu[1][0] == 0.0
    assert verify_duality(sol, cert, prob).max_residual <= 1e-12


def test_a_cap_met_exactly_certifies_on_the_fast_path(monkeypatch):
    # One user at 1 bit/s/Hz through a unit single-antenna channel with unit
    # noise needs exactly the 1 mW its antenna may emit.  The beams meet the
    # cap and the bound sum lambda = rho = 2 mW: _finish certifies them, with
    # mu = 0, and no relaxation is built.
    ch = make_channels([[np.array([1.0 + 0j])]], [1.0])
    hw = HardwareProfile(rho=(2.0,), eta=(0.0,), per_antenna_limit=(1.0,))
    prob = CoordinationProblem(ch, hw, (1.0,))
    monkeypatch.setattr(coordination, "build_relaxation", _refuse_relaxation)
    sol, cert = solve_optimal(prob)
    assert sol.objective_dynamic == pytest.approx(2.0, rel=1e-12)
    assert sol.objective_relaxation == pytest.approx(2.0, rel=1e-12)
    assert np.array_equal(cert.mu[0], [0.0])
    assert verify_duality(sol, cert, prob).ok()


def test_fast_path_serves_a_pool_user_from_one_transmitter_only(monkeypatch):
    # Criterion 4's pool instance 39 (N_BS=4, one user at each of two SCAs and
    # two uniform users at 1 bit/s/Hz), trial 1, with caps x100.  A power LP
    # over directions at every transmitter leaves 1.8e-6 of user 2's power on
    # the BS, which once counted as serving and made it a multiflow user that
    # no active cap licenses.
    r = 0.3 / np.sqrt(2.0)
    cfg = ScenarioConfig(cell_radius=0.5, num_users_uniform=2,
                         sca_positions=((r, r), (-r, -r)), users_per_sca=1,
                         n_bs=4, n_sca=2, qos_targets=(1.0,) * 4, seed=7039)
    hw = cfg.hardware
    lifted = HardwareProfile(rho=hw.rho, eta=hw.eta,
                             per_antenna_limit=tuple(100.0 * q for q in hw.per_antenna_limit),
                             subcarriers=hw.subcarriers)
    prob = CoordinationProblem(realize_scenario(cfg, trial=1), lifted, cfg.qos_targets)
    monkeypatch.setattr(coordination, "build_relaxation", _refuse_relaxation)
    sol, _ = solve_optimal(prob)
    assert all(len(serving) == 1 for serving in sol.serving)
    assert not classify_assignment(sol, lifted).diagnostics


@pytest.mark.parametrize("targets", [(2.0, 2.0), (1.0, 1.0)], ids=["sinr3", "sinr1"])
def test_diverging_fixed_point_leaves_the_certificate_to_the_relaxation(targets):
    # Two users on one identical single-antenna channel cannot both reach
    # SINR 3, nor both SINR 1: the fixed point grows without bound (at SINR
    # 1 by a constant each round, through all UPLINK_MAX_ITERS under these
    # loose caps) and the relaxation certifies infeasibility.
    ch = make_channels([[np.array([1.0 + 0j])], [np.array([1.0 + 0j])]], [1.0, 1.0])
    prob = CoordinationProblem(ch, loose_hardware(1), targets)
    start = time.perf_counter()
    with pytest.raises(InfeasibleProblemError) as exc:
        solve_optimal(prob)
    assert time.perf_counter() - start < 1.0
    assert exc.value.certificate is not None



@pytest.mark.parametrize("weights", ["random", "some_zero", "all_zero"])
def test_push_through_kernel_matches_the_antenna_domain_solve(weights):
    # One batch of three transmitters: many more antennas than users, fewer
    # antennas than users, and none at all.
    rng = np.random.default_rng(21)
    K = 4
    G = [rng.normal(size=(n, K)) + 1j * rng.normal(size=(n, K)) for n in (64, 3, 0)]
    a = {"random": rng.uniform(0.1, 3.0, size=K),
         "some_zero": np.array([0.0, 1.5, 0.0, 0.7]),
         "all_zero": np.zeros(K)}[weights]
    r = rng.uniform(0.5, 2.0, size=len(G))
    gram = np.array([G_t.conj().T @ G_t for G_t in G]).reshape(len(G), K, K)
    Y = regularized_inverse(gram, a, r)
    assert Y.shape == (len(G), K, K)
    # The inverse is the solve against the identity, bit for bit.
    system = a[:, None] * gram + r[:, None, None] * np.eye(K)
    assert np.array_equal(Y, np.linalg.solve(system, np.broadcast_to(np.eye(K), system.shape)))
    for G_t, Y_t, r_t in zip(G, Y, r):
        ref = np.linalg.solve((G_t * a) @ G_t.conj().T + r_t * np.eye(G_t.shape[0]), G_t)
        assert np.linalg.norm(G_t @ Y_t - ref) <= 1e-10 * np.linalg.norm(ref)


def test_massive_mimo_fixed_point_matches_an_antenna_domain_reference(monkeypatch):
    # N_BS = 64 antennas and K = 6 users: the fixed point run on K x K
    # systems gives the multipliers of the same iteration on n x n ones,
    # written here with Sherman-Morrison as in the _solve_uplink docstring.
    cfg = replace(desk_config(seed=202), n_bs=64)
    prob = CoordinationProblem(realize_scenario(cfg, trial=0), cfg.hardware, cfg.qos_targets)
    monkeypatch.setattr(coordination, "build_relaxation", _refuse_relaxation)
    _, cert = solve_optimal(prob)

    ch, gt = prob.channels, prob.gtilde
    sigma2 = np.asarray(ch.sigma2, dtype=float)
    lam = np.zeros(ch.num_users)
    for _ in range(coordination.UPLINK_MAX_ITERS):
        best = np.zeros(ch.num_users)
        for j in prob.active_transmitters():
            G = ch.H[j] / np.sqrt(sigma2)
            C = (G * lam) @ G.conj().T + prob.hw.rho[j] * np.eye(G.shape[0])
            x = np.einsum("ik,ik->k", G.conj(), np.linalg.solve(C, G)).real
            best = np.maximum(best, x / (1.0 - lam * x))
        new = gt / best
        settled = np.all(new - lam <= coordination.UPLINK_TOL * new)
        lam = new
        if settled:
            break
    assert np.allclose(cert.lam, lam, rtol=1e-10, atol=0)


def test_paper_scale_trial_certifies_on_the_fast_path(monkeypatch):
    # The paper's setup (N_BS = 100, K = 10, four single-antenna small cells)
    # certifies without the relaxation, which would take about 26 s here.
    monkeypatch.setattr(coordination, "build_relaxation", _refuse_relaxation)
    monkeypatch.setattr(cs, "solve", _refuse_conic_solve)
    assert run_trial(full_paper_config(), "qos", 2.0, "optimal", 0).status == "optimal"


def test_a_slow_paper_fixed_point_certifies_on_the_fast_path(monkeypatch):
    # Paper QoS 1, trial 8: a marginal pair on one single-antenna small cell
    # makes the fixed point take 743 rounds to settle; the relaxation, which
    # finds the same total, would take about 10 s on a 2-vCPU Xeon.
    monkeypatch.setattr(coordination, "build_relaxation", _refuse_relaxation)
    monkeypatch.setattr(cs, "solve", _refuse_conic_solve)
    record = run_trial(full_paper_config(), "qos", 1.0, "optimal", 8)
    assert record.status == "optimal"
    assert record.total_mw == pytest.approx(32.53550813796266, rel=0, abs=1e-9)


def test_an_unsettled_fixed_point_answers_from_its_last_round(monkeypatch):
    # Desk seed 202, QoS 2, trial 0 settles in 14 rounds.  Stopped after 7,
    # its lambda is still dual feasible and its beams certify within the gap.
    cfg = desk_config(seed=202)
    prob = CoordinationProblem(realize_scenario(cfg, trial=0), cfg.hardware, cfg.qos_targets)
    settled, _ = solve_optimal(prob)
    monkeypatch.setattr(coordination, "UPLINK_MAX_ITERS", 7)
    monkeypatch.setattr(coordination, "build_relaxation", _refuse_relaxation)
    monkeypatch.setattr(cs, "solve", _refuse_conic_solve)
    sol, cert = solve_optimal(prob)
    assert sol.objective_total == pytest.approx(settled.objective_total, rel=0, abs=1e-9)
    assert verify_duality(sol, cert, prob).ok()


# ---------------------------------------------------------------------------
# Cap rows: the relaxation first carries only the caps the fast path touched
# ---------------------------------------------------------------------------

def _same_program(a, b):
    """Whether two conic programs have the same blocks, objective and rows."""
    def same(x, y):
        return x.keys() == y.keys() and all(np.array_equal(x[i], y[i]) for i in x)
    return (a.blocks == b.blocks and same(a.objective, b.objective)
            and len(a.constraints) == len(b.constraints)
            and all(r.sense == t.sense and r.rhs == t.rhs and same(r.coeffs, t.coeffs)
                    for r, t in zip(a.constraints, b.constraints)))


def _is_infeasibility_ray(conic, y):
    """Farkas test: y >= 0 combines the rows, each read as a >= row, into one
    whose coefficients are negative semidefinite on every block while its
    right-hand side is positive, so no PSD point meets them all."""
    sign = np.array([1.0 if row.sense == ">=" else -1.0 for row in conic.constraints])
    combined = [sum(s * y_r * row.coeffs[b] for s, y_r, row in zip(sign, y, conic.constraints)
                    if b in row.coeffs) for b in range(len(conic.blocks))]
    rhs = float(sum(sign * y * np.array([row.rhs for row in conic.constraints])))
    scale = np.abs(y).max()
    return (len(y) == len(conic.constraints) and np.all(y >= 0.0) and rhs > 1e-6 * scale
            and all(np.linalg.eigvalsh(M).max() <= 1e-7 * scale for M in combined))


def _recording_builds(monkeypatch):
    """Each relaxation solve_optimal builds, as (caps, Relaxation)."""
    built = []
    monkeypatch.setattr(coordination, "build_relaxation",
                        lambda p, caps: built.append((caps, build_relaxation(p, caps)))
                        or built[-1][1])
    return built


def _recording_ascents(monkeypatch):
    """Whether each cap ascent solve_optimal runs forms a candidate."""
    formed = []
    ascent = coordination._cap_ascent
    monkeypatch.setattr(coordination, "_cap_ascent",
                        lambda *args: (lambda c: formed.append(c is not None) or c)(ascent(*args)))
    return formed


def _without_ascent(monkeypatch):
    """Switch the cap ascent off, so that the relaxations answer every fallback."""
    monkeypatch.setattr(coordination, "_cap_ascent", lambda *args: None)


def _answered_by(problem, built, formed):
    """The candidate that answered solve_optimal(problem), read from the
    relaxations it built and whether its ascents formed a candidate: "fast",
    "ascent", "seeded" or "full"."""
    if built:
        return "full" if built[-1][0] == set(coordination.antenna_caps(problem)) else "seeded"
    return "ascent" if any(formed) else "fast"


# The candidate that answers each desk fallback (seed 202, QoS 1-3, trials
# 0-15).  The cap ascent answers where one cap binds.  On QoS 1.0 trials 3 and
# 9 both seeded caps bind, so the ascent's answer breaks the other one and the
# seeded relaxation answers.  On QoS 2.0 trial 6 the seeded relaxation's
# answer breaks a cap the seed left out, and the full program answers.
DESK_FALLBACKS = {(1.0, 3): "seeded", (1.0, 9): "seeded", (2.0, 4): "ascent",
                  (2.0, 6): "full", (2.0, 9): "ascent", (2.0, 14): "ascent",
                  (3.0, 4): "ascent", (3.0, 6): "ascent", (3.0, 9): "ascent",
                  (3.0, 14): "ascent"}


def test_a_cap_the_seed_misses_sends_the_relaxation_to_every_cap(monkeypatch):
    # One user needs 3 mW of received power over three unit channels.  The
    # fixed point puts all 3 mW on the cheapest transmitter, over its 2 mW cap,
    # so that cap seeds the relaxation; its optimum then puts 1 mW on the
    # next cheapest, over that one's 0.5 mW cap, and the full program follows.
    ch = make_channels([[np.array([1.0 + 0j])] * 3], [1.0])
    hw = HardwareProfile(rho=(2.0, 3.0, 4.0), eta=(0.0,) * 3, per_antenna_limit=(2.0, 0.5, 50.0))
    prob = CoordinationProblem(ch, hw, (2.0,))
    built = _recording_builds(monkeypatch)
    sol, cert = solve_optimal(prob)
    assert [caps for caps, _ in built] == [{(0, 0)}, {(0, 0), (1, 0), (2, 0)}]
    assert [relax.conic.num_constraints for _, relax in built] == [2, 4]
    assert _same_program(built[1][1].conic, full_relaxation(prob).conic)
    assert sol.objective_dynamic == pytest.approx(2.0 * 2.0 + 3.0 * 0.5 + 4.0 * 0.5, rel=1e-7)
    assert cert.mu[0][0] > 0 and cert.mu[1][0] > 0
    assert verify_duality(sol, cert, prob).ok()


def test_an_infeasible_program_without_beams_holds_every_cap(monkeypatch):
    # The diverging fixed point of two users on one single-antenna channel
    # forms no beams: the relaxation is built with every cap, as the full
    # program is, and its infeasibility ray covers every row.
    ch = make_channels([[np.array([1.0 + 0j])], [np.array([1.0 + 0j])]], [1.0, 1.0])
    prob = CoordinationProblem(ch, loose_hardware(1), (2.0, 2.0))
    assert coordination._solve_uplink(prob) is None
    built = _recording_builds(monkeypatch)
    with pytest.raises(InfeasibleProblemError) as exc:
        solve_optimal(prob)
    full = full_relaxation(prob).conic
    assert [caps for caps, _ in built] == [{(0, 0)}]
    assert _same_program(built[0][1].conic, full)
    assert _is_infeasibility_ray(full, exc.value.certificate)


def test_a_left_out_cap_has_a_zero_entry_in_the_infeasibility_ray(monkeypatch):
    # 3 mW of received power through a unit channel capped at 0.5 mW cannot
    # be had, and the second transmitter hears nothing.  The seeded program
    # holds the first cap only and is already infeasible; the ray reads 0 on
    # the second cap in the full row layout.
    ch = make_channels([[np.array([1.0 + 0j]), np.array([0.0j])]], [1.0])
    hw = HardwareProfile(rho=(2.0, 4.0), eta=(0.0,) * 2, per_antenna_limit=(0.5, 100.0))
    prob = CoordinationProblem(ch, hw, (2.0,))
    built = _recording_builds(monkeypatch)
    with pytest.raises(InfeasibleProblemError) as exc:
        solve_optimal(prob)
    assert [caps for caps, _ in built] == [{(0, 0)}]
    assert coordination.antenna_caps(prob) == [(0, 0), (1, 0)]
    ray = exc.value.certificate
    assert ray[2] == 0.0 and np.all(ray[:2] > 0)
    assert _is_infeasibility_ray(full_relaxation(prob).conic, ray)


def test_a_reduced_precision_seeded_answer_certifies_near_a_tight_reference(monkeypatch):
    # Criterion 7's N_BS=8 sweep without small cells, trial 46, with the cap
    # ascent switched off (it answers this trial): the seeded program (the QoS
    # rows and one cap) stops at reduced precision, and its repaired beams
    # meet every cap and its optimum within CERT_GAP, so they answer, within
    # 1.4e-8 relative of the optimum of the full program solved to targets
    # 1e-13/1e-12.
    cfg = with_axis_value(replace(desk_config(seed=101), n_bs=8), "n_sca", 0)
    prob = CoordinationProblem(realize_scenario(cfg, trial=46), cfg.hardware, cfg.qos_targets)
    _without_ascent(monkeypatch)
    built, messages = _recording_builds(monkeypatch), []
    solve = cs.solve
    monkeypatch.setattr(cs, "solve", lambda p: (lambda s: messages.append(s.message) or s)(solve(p)))
    sol, cert = solve_optimal(prob)
    assert [caps for caps, _ in built] == [{(0, 0)}]
    assert "reduced precision" in messages[0]
    assert verify_duality(sol, cert, prob).ok()
    monkeypatch.setattr(cs, "TOL_FEAS", 1e-13)
    monkeypatch.setattr(cs, "TOL_GAP", 1e-12)
    reference = solve(full_relaxation(prob).conic)
    assert reference.status == cs.OPTIMAL
    assert sol.objective_dynamic == pytest.approx(reference.primal_objective, rel=2e-8)


def test_a_failed_seeded_solve_gives_way_to_every_cap(monkeypatch):
    # Desk seed 202, QoS 2.0, trial 4, with the cap ascent switched off,
    # falls back with a seeded program; when that solve ends as a numerical
    # failure, the full program answers.
    cfg = replace(desk_config(seed=202), qos_targets=(2.0,) * 6)
    prob = CoordinationProblem(realize_scenario(cfg, trial=4), cfg.hardware, cfg.qos_targets)
    _without_ascent(monkeypatch)
    built = _recording_builds(monkeypatch)
    solve = cs.solve
    monkeypatch.setattr(cs, "solve", lambda p: replace(solve(p), status=cs.NUMERICAL_FAILURE)
                        if len(built) == 1 else solve(p))
    sol, cert = solve_optimal(prob)
    full = full_relaxation(prob).conic
    assert len(built) == 2 and built[0][1].conic.num_constraints < full.num_constraints
    assert _same_program(built[1][1].conic, full)
    assert sol.objective_relaxation == pytest.approx(solve(full).primal_objective, rel=1e-12)
    assert verify_duality(sol, cert, prob).ok()


def _recording_rounds(monkeypatch):
    """The lambda into and out of the last _uplink_round, the certificate's:
    the fast path's rounds all come before it."""
    last = []
    uplink_round = coordination._uplink_round

    def record(problem, lam, F):
        step = uplink_round(problem, lam, F)
        last[:] = [lam.copy(), None if step is None else step[0]]
        return step
    monkeypatch.setattr(coordination, "_uplink_round", record)
    return last


def _near_the_ipm_lambda(cert_lam, ipm_lam):
    """The uplink round moves no multiplier by more than the IPM's gap target
    relative to the largest one, the error bound of the IPM's own lambda."""
    return np.max(np.abs(cert_lam - ipm_lam)) <= cs.TOL_GAP * np.max(ipm_lam)


def test_a_paper_scale_seeded_fallback_solves_ten_by_ten_bs_blocks(monkeypatch):
    # The paper's setup with the small-cell caps x0.1, QoS 3, trial 5: the
    # fixed point's beams break a small-cell cap, and with the cap ascent
    # switched off (it answers this trial) the relaxation seeded with that
    # cap answers.  Its BS blocks live in the span of the ten users'
    # channels: 10 x 10 instead of 100 x 100, 1,040 coordinates instead of
    # 100,040, about 0.03 s instead of 2.2 s on a 2-vCPU Xeon.
    cfg = replace(full_paper_config(), qos_targets=(3.0,) * 10)
    hw = cfg.hardware
    caps = hw.per_antenna_limit[:1] + tuple(0.1 * q for q in hw.per_antenna_limit[1:])
    cfg = replace(cfg, hardware=HardwareProfile(hw.rho, hw.eta, caps, hw.subcarriers))
    prob = CoordinationProblem(realize_scenario(cfg, trial=5), cfg.hardware, cfg.qos_targets)
    _without_ascent(monkeypatch)
    built = _recording_builds(monkeypatch)
    last_round = _recording_rounds(monkeypatch)
    sol, cert = solve_optimal(prob)
    assert len(built) == 1 and built[0][0] != set(coordination.antenna_caps(prob))
    relax = built[0][1]
    assert relax.conic.blocks[relax.block_of[(0, 0)]].dim == 10
    assert sum(b.svec_dim for b in relax.conic.blocks) == 1040
    assert verify_duality(sol, cert, prob).ok()
    ipm_lam, round_lam = last_round
    assert np.array_equal(cert.lam, round_lam)
    assert _near_the_ipm_lambda(cert.lam, ipm_lam)      # 7.2e-10 max


def test_a_small_multiplier_is_priced_on_its_own_dual_row(monkeypatch):
    # Desk seed 202, QoS 1.0, trial 9 answers from its seeded program.  The
    # IPM bounds each multiplier's error relative to the largest one, and here
    # lambda_4 is 9.1e-7 against lambda_0 = 83: with the IPM's own lambda the
    # duality residual is 2.2e-5.  The certificate's lambda is one round of
    # the uplink map at the IPM's (lambda, mu), which prices each user on its
    # own dual row.
    cfg = replace(desk_config(seed=202), qos_targets=(1.0,) * 6)
    prob = CoordinationProblem(realize_scenario(cfg, trial=9), cfg.hardware, cfg.qos_targets)
    built = _recording_builds(monkeypatch)
    last_round = _recording_rounds(monkeypatch)
    sol, cert = solve_optimal(prob)
    assert len(built) == 1
    assert verify_duality(sol, cert, prob).max_residual <= 1e-6
    ipm_lam, round_lam = last_round
    assert np.array_equal(cert.lam, round_lam)
    assert _near_the_ipm_lambda(cert.lam, ipm_lam)      # 3.8e-11 max


def test_desk_fallbacks_keep_the_all_caps_optimum(monkeypatch):
    # Every desk fallback (seed 202, QoS 1-3, trials 0-15) answers from the
    # candidate DESK_FALLBACKS names, at a dynamic power within 1e-9 relative
    # of the full optimum solved to TOL_FEAS 1e-13 / TOL_GAP 1e-12 (the cap
    # ascent's within 7.6e-12, the relaxations' within 5.4e-10).  Each seeded
    # program holds fewer rows than the full one.
    built, formed = _recording_builds(monkeypatch), _recording_ascents(monkeypatch)
    answered = {}
    for qos in (1.0, 2.0, 3.0):
        cfg = replace(desk_config(seed=202), qos_targets=(qos,) * 6)
        for trial in range(16):
            prob = CoordinationProblem(realize_scenario(cfg, trial=trial), cfg.hardware,
                                       cfg.qos_targets)
            built.clear()
            formed.clear()
            sol, cert = solve_optimal(prob)
            if not (built or formed):
                continue
            answered[(qos, trial)] = _answered_by(prob, built, formed)
            full = full_relaxation(prob).conic
            if built:
                assert built[0][1].conic.num_constraints < full.num_constraints
            with monkeypatch.context() as tight:
                tight.setattr(cs, "TOL_FEAS", 1e-13)
                tight.setattr(cs, "TOL_GAP", 1e-12)
                reference = cs.solve(full)
            assert reference.status == cs.OPTIMAL
            assert sol.objective_dynamic == pytest.approx(reference.primal_objective, rel=1e-9)
            assert verify_duality(sol, cert, prob).ok()
    assert answered == DESK_FALLBACKS


def _desk_problem(cfg, qos, trial):
    cfg = replace(cfg, qos_targets=(qos,) * 6)
    return CoordinationProblem(realize_scenario(cfg, trial=trial), cfg.hardware, cfg.qos_targets)


def test_the_cap_ascent_splits_a_tied_user_over_its_binding_cap(monkeypatch):
    # Desk QoS 2.0, trial 4: the fast path's beams put 1.21 times the cap on
    # antenna 1 of small cell 2.  At the multiplier that relieves it, user 1
    # ties between the BS and that small cell, and the cap's row splits its
    # power: a multiflow user licensed by the one binding cap.
    prob = _desk_problem(desk_config(seed=202), 2.0, 4)
    monkeypatch.setattr(coordination, "build_relaxation", _refuse_relaxation)
    sol, cert = solve_optimal(prob)
    assert coordination.binding_caps(sol.w, prob.hw) == {(2, 1)}
    assert [(j, l) for j, mu_j in enumerate(cert.mu) for l in np.flatnonzero(mu_j)] == [(2, 1)]
    multiflow = [a for a in classify_assignment(sol, prob.hw).assignments if a.case == MULTIFLOW]
    assert [(a.user, a.serving, a.licensed_by) for a in multiflow] == [(1, (0, 2), ((2, 1),))]
    assert verify_duality(sol, cert, prob).max_residual <= 1e-11


def test_the_cap_ascent_answers_without_a_tie(monkeypatch):
    # Desk QoS 2.0, trial 14: the cap's slope crosses zero where every user
    # keeps its transmitter, so the beams of _solve_uplink at the root answer
    # and meet the cap, with every user served by one transmitter.
    prob = _desk_problem(desk_config(seed=202), 2.0, 14)
    monkeypatch.setattr(coordination, "build_relaxation", _refuse_relaxation)
    sol, cert = solve_optimal(prob)
    assert all(len(serving) == 1 for serving in sol.serving)
    assert coordination.binding_caps(sol.w, prob.hw) == {(2, 1)}
    assert [(j, l) for j, mu_j in enumerate(cert.mu) for l in np.flatnonzero(mu_j)] == [(2, 1)]
    assert verify_duality(sol, cert, prob).max_residual <= 1e-11


def test_the_cap_ascent_prices_the_seeded_cap_used_most(monkeypatch):
    # Desk QoS 3.0, trial 6: the fast path's beams break both caps of small
    # cell 1, antenna 0 by 1.45 times and antenna 1 by 3.72 times.  The ascent
    # prices antenna 1 alone, and relieving it relieves antenna 0 too.
    prob = _desk_problem(desk_config(seed=202), 3.0, 6)
    fast = coordination._solve_uplink(prob)
    assert coordination.binding_caps(fast.w, prob.hw) == {(1, 0), (1, 1)}
    monkeypatch.setattr(coordination, "build_relaxation", _refuse_relaxation)
    sol, cert = solve_optimal(prob)
    assert [(j, l) for j, mu_j in enumerate(cert.mu) for l in np.flatnonzero(mu_j)] == [(1, 1)]
    assert coordination.binding_caps(sol.w, prob.hw) == {(1, 1)}
    assert verify_duality(sol, cert, prob).ok()


# ---------------------------------------------------------------------------
# Interior-point end-game on relaxations that used to stall
# ---------------------------------------------------------------------------

# Two instances of the acceptance pool (4 uniform users, one user at each of
# two SCAs, N_BS=8) whose relaxations once took 200 and 169 IPM iterations:
# the Schur complement reaches cond ~1e15 and the plain Newton directions
# stop making progress long before the certification bounds hold.
STALLING_POOL_INSTANCES = [(7088, 2.0, 1), (7087, 1.0, 0)]


def _pool_relaxation(seed, gamma, trial):
    r = 0.3 / np.sqrt(2.0)
    cfg = ScenarioConfig(cell_radius=0.5, num_users_uniform=4,
                         sca_positions=((r, r), (-r, -r)), users_per_sca=1,
                         n_bs=8, n_sca=2, qos_targets=(gamma,) * 6, seed=seed)
    channels = realize_scenario(cfg, trial=trial)
    return full_relaxation(CoordinationProblem(channels, cfg.hardware, cfg.qos_targets)).conic


@pytest.mark.parametrize("seed,gamma,trial", STALLING_POOL_INSTANCES)
def test_stalling_relaxations_certify_within_an_iteration_budget(seed, gamma, trial):
    sol = cs.solve(_pool_relaxation(seed, gamma, trial))
    assert sol.status == cs.OPTIMAL
    assert sol.iterations <= 50


# Pool instances of the same shape whose full relaxations end through the
# stall exit (24 iterations each).  Which instances reach it depends on the
# channel's last bits, so a change to the draw may have to re-pin them.
STALL_EXIT_INSTANCES = [(7088, 2.0, 1), (7089, 3.0, 2)]


@pytest.mark.parametrize("seed,gamma,trial", STALL_EXIT_INSTANCES)
def test_stall_exit_returns_a_certified_iterate(seed, gamma, trial):
    sol = cs.solve(_pool_relaxation(seed, gamma, trial))
    # These solves end through the stall exit, short of the target tolerances.
    assert sol.status == cs.OPTIMAL
    assert "reduced precision" in sol.message
    assert sol.residual_primal <= cs.CERT_FEAS
    assert sol.residual_dual <= cs.CERT_FEAS
    assert sol.residual_gap <= cs.CERT_GAP


def test_stall_without_a_certified_iterate_is_a_numerical_failure(monkeypatch):
    # Bounds no iterate can meet: the stall exit must not fire, and the solve
    # runs into its iteration limit instead of returning an optimum.
    monkeypatch.setattr(cs, "CERT_FEAS", 1e-15)
    monkeypatch.setattr(cs, "MAX_ITERS", 40)
    sol = cs.solve(_pool_relaxation(*STALLING_POOL_INSTANCES[0]))
    assert sol.status == cs.NUMERICAL_FAILURE
    assert "iteration limit" in sol.message
    assert sol.block_values is None


def test_antenna_sweep_trial_with_a_higher_rank_block_certifies():
    # Criterion 7's sweep at N_BS=24 with one SCA, trial 13.  The seeded
    # program (19 iterations) gives way to the full one (33), and its block (5, 0)
    # (24x24) is not numerically rank-one.  A program that maximizes that
    # block's own gain under its caps and interference ends at the
    # interior-point iteration limit; the closed-form repair solves nothing,
    # and the repaired beams meet the relaxed optimum and the duality check.
    base = replace(desk_config(seed=101), n_bs=24)
    assert run_trial(base, "n_sca", 1, "optimal", 13).status == "optimal"
    cfg = replace(base, n_sca=1)
    prob = CoordinationProblem(realize_scenario(cfg, trial=13), cfg.hardware, cfg.qos_targets)
    sol, cert = solve_optimal(prob)
    assert abs(sol.objective_dynamic - sol.objective_relaxation) <= 1e-6 * sol.objective_relaxation
    assert verify_duality(sol, cert, prob).ok()


def test_each_iteration_applies_h_five_times_and_scales_each_direction_once(monkeypatch):
    # Outside the end-game an iteration applies H to c, to A'y1, to r_D and
    # once in each direction's Newton solve, and forms each direction's
    # scaled steps in one call.  This full desk relaxation (QoS 2, trial 0,
    # 17 iterations) never takes a step shorter than _ENDGAME_STEP; the
    # end-game is switched off all the same, so the count cannot depend on
    # where a chaotic solve first takes a short step.
    cfg = with_axis_value(desk_config(seed=202), "qos", 2.0)
    prob = CoordinationProblem(realize_scenario(cfg, trial=0), cfg.hardware, cfg.qos_targets)
    conic = full_relaxation(prob).conic
    scalings = []

    class Counted(cs._Scaling):
        def __init__(self, *args):
            super().__init__(*args)
            self.calls = {"apply_H": 0, "scaled_steps": 0}
            scalings.append(self)

        def apply_H(self, *args):
            self.calls["apply_H"] += 1
            return super().apply_H(*args)

        def scaled_steps(self, *args):
            self.calls["scaled_steps"] += 1
            return super().scaled_steps(*args)

    monkeypatch.setattr(cs, "_Scaling", Counted)
    monkeypatch.setattr(cs, "_ENDGAME_STEP", 0.0)
    sol = cs.solve(conic)
    assert sol.status == cs.OPTIMAL and sol.message == ""
    assert len(scalings) == sol.iterations > 10
    assert all(s.calls == {"apply_H": 5, "scaled_steps": 2} for s in scalings)


# ---------------------------------------------------------------------------
# Sub-mW optima: the desk corpus with noise and caps scaled down
# ---------------------------------------------------------------------------

def _scaled_desk(noise_db, cap_factor):
    cfg = desk_config(seed=202)
    hw = cfg.hardware
    return replace(cfg, noise_variance_dbm=cfg.noise_variance_dbm - noise_db,
                   hardware=HardwareProfile(hw.rho, hw.eta,
                                            tuple(cap_factor * q for q in hw.per_antenna_limit),
                                            hw.subcarriers))


@pytest.mark.parametrize("gamma,trial", [(1.0, 3), (1.0, 9), (2.0, 6), (2.0, 9)])
def test_sub_mw_fallbacks_certify_at_scaled_power(monkeypatch, gamma, trial):
    # Noise 40 dB lower and caps x1e-4 scale every power by 1e-4: these
    # cap-bound trials answer from the candidate that answers them unscaled,
    # at about 1e-3 mW, and must land on the scaled optimum, not merely within
    # the absolute 1e-6 mW gap.  QoS 2.0 trial 9 answers from the cap ascent,
    # the others from a relaxation.
    reference = run_trial(desk_config(seed=202), "qos", gamma, "optimal", trial)
    built, formed = _recording_builds(monkeypatch), _recording_ascents(monkeypatch)
    scaled = run_trial(_scaled_desk(40.0, 1e-4), "qos", gamma, "optimal", trial)
    prob = _desk_problem(_scaled_desk(40.0, 1e-4), gamma, trial)
    assert _answered_by(prob, built, formed) == DESK_FALLBACKS[(gamma, trial)]
    assert scaled.status == reference.status == "optimal"
    assert scaled.p_dynamic_mw == pytest.approx(1e-4 * reference.p_dynamic_mw, rel=1e-6)


@pytest.mark.parametrize("s", range(7))
def test_cap_ascent_answers_scale_with_noise_and_caps(monkeypatch, s):
    # Noise 10 s dB lower and caps x10^-s scale every power by 10^-s: each
    # desk trial the ascent answers still answers from it, at the scaled
    # power within 1e-9 (7.7e-13 at most, measured).
    built, formed = _recording_builds(monkeypatch), _recording_ascents(monkeypatch)
    for (qos, trial), candidate in DESK_FALLBACKS.items():
        if candidate != "ascent":
            continue
        reference = solve_optimal(_desk_problem(desk_config(seed=202), qos, trial))[0]
        built.clear()
        formed.clear()
        prob = _desk_problem(_scaled_desk(10.0 * s, 10.0 ** -s), qos, trial)
        sol, cert = solve_optimal(prob)
        assert _answered_by(prob, built, formed) == "ascent"
        assert sol.objective_dynamic == pytest.approx(10.0 ** -s * reference.objective_dynamic,
                                                      rel=1e-9)
        assert verify_duality(sol, cert, prob).ok()


@pytest.mark.parametrize("gamma", [
    # With the 8 rows its answer needs, not all 26, the QoS 1.0 relaxation
    # certifies and meets the cap: 5.0774 mW in total.
    1.0,
    # 60 dB lower noise and caps x1e-6: the seeded program in the channel
    # subspace answers, 4.2e-9 relative from the full program solved to
    # targets 1e-13/1e-12, with its tightest cap 3.9e-7 relative over the
    # limit, inside CAP_TOL.  On full 16 x 16 BS blocks the repaired beams of
    # the seeded and of the full program broke that cap by 3.6e-6 and 5.1e-6.
    2.0])
def test_sub_mw_fallback_meets_a_1e_minus_7_mw_cap(gamma):
    assert run_trial(_scaled_desk(60.0, 1e-6), "qos", gamma, "optimal", 9).status == "optimal"


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_sub_mw_fallback_certificate_meets_the_duality_check(gamma):
    # The twins of the 1e-7 mW cap test: both certify optimal, and the
    # duality identity must hold on their certificates as well.  They read
    # 1.1e-5 and 4.1e-6.  The cap multipliers are still certified only through
    # the row floor of conic_solver._relres (ROADMAP item 9), but no trial
    # 0-49 of this family at QoS 1.0 or 2.0 fails this check.
    cfg = replace(_scaled_desk(60.0, 1e-6), qos_targets=(gamma,) * 6)
    prob = CoordinationProblem(realize_scenario(cfg, trial=9), cfg.hardware, cfg.qos_targets)
    sol, cert = solve_optimal(prob)
    assert verify_duality(sol, cert, prob).ok()
