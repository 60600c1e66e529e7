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
                                   build_relaxation, classify_assignment,
                                   regularized_inverse, repair_rank, solve_optimal,
                                   verify_duality)
from softcell.evaluation import evaluate
from softcell.exceptions import (InfeasibleProblemError, InvalidInputError,
                                 NumericalFailureError, RzfInfeasibleError)
from softcell.power import HardwareProfile, circuit_power
from softcell.rzf import rzf_solve
from softcell.scenario import ScenarioConfig, realize_scenario
from softcell.simulate import run_trial


def rand_instance(rng, K, antennas, gamma, sigma2=1.0, hw=None):
    h_rows = [[(rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2.0)
               for n in antennas] for _ in range(K)]
    ch = make_channels(h_rows, [sigma2] * K)
    hw = hw if hw is not None else loose_hardware(len(antennas))
    return CoordinationProblem(ch, hw, tuple(gamma))


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
    relax = build_relaxation(prob)
    assert len(relax.conic.blocks) == 1
    assert list(relax.qos_row) == [0]
    assert sorted(relax.power_row) == [(0, 0), (0, 1)]
    assert prob.gtilde[0] == pytest.approx(3.0, rel=1e-15)


def test_relaxation_skips_users_without_targets():
    rng = np.random.default_rng(2)
    prob = rand_instance(rng, 3, [2, 2], (2.0, 0.0, 1.0))
    relax = build_relaxation(prob)
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

def test_repair_is_identity_on_rank_one_blocks():
    rng = np.random.default_rng(3)
    prob = rand_instance(rng, 2, [2, 2], (1.0, 1.0))
    v = [[(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(2)]
         for _ in range(2)]
    W = [[np.outer(v[k][j], v[k][j].conj()) for j in range(2)] for k in range(2)]
    w = repair_rank(W, prob)
    for k in range(2):
        for j in range(2):
            rank_one = np.outer(w[j][:, k], w[j][:, k].conj())
            assert np.abs(rank_one - W[k][j]).max() <= 1e-10 * np.abs(W[k][j]).max()


def test_repair_zeroes_negligible_blocks():
    rng = np.random.default_rng(4)
    prob = rand_instance(rng, 1, [2, 2], (1.0,))
    big = np.eye(2, dtype=complex)
    tiny = 1e-9 * np.eye(2, dtype=complex)
    w = repair_rank([[big, tiny]], prob)
    assert np.all(w[1][:, 0] == 0.0)
    assert np.any(w[0][:, 0] != 0.0)


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
    w = repair_rank(W, prob)
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
        assert abs(sol.objective_dynamic - sol.objective_relaxation) \
            <= 1e-4 * (1.0 + abs(sol.objective_relaxation))
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


# ---------------------------------------------------------------------------
# Uplink fixed point: the exact path that needs no PSD solve
# ---------------------------------------------------------------------------

def _refuse_relaxation(problem):
    raise AssertionError("solve_optimal built the relaxation")


def _refuse_conic_solve(problem):
    raise AssertionError("solve_optimal ran a conic solve")


def test_fixed_point_certifies_the_relaxation_optimum(monkeypatch):
    rng = np.random.default_rng(13)
    for _ in range(6):
        K = int(rng.integers(1, 5))
        prob = rand_instance(rng, K, [4, 2, 1], tuple(rng.uniform(0.5, 2.5, size=K)))
        reference = cs.solve(build_relaxation(prob).conic)
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
    tight = HardwareProfile(rho=(2.0, 4.0), eta=(0.0, 0.0), per_antenna_limit=(2.0, 50.0))
    prob = CoordinationProblem(ch, tight, (2.0,))
    built = []
    monkeypatch.setattr(coordination, "build_relaxation",
                        lambda p: built.append(p) or build_relaxation(p))
    sol, cert = solve_optimal(prob)
    assert built
    assert cert.mu[0][0] > 0
    assert sol.serving[0] == (0, 1)


def test_fast_path_serves_a_pool_user_from_one_transmitter_only(monkeypatch):
    # Criterion 4's pool instance 39 (N_BS=4, one user at each of two SCAs and
    # two uniform users at 1 bit/s/Hz), trial 1, with caps x100.  A power LP
    # over directions at every transmitter leaves 1.8e-6 of user 2's power on
    # the BS, above SERVING_SHARE, and makes it a multiflow user that no
    # active cap licenses.
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


def test_diverging_fixed_point_leaves_the_certificate_to_the_relaxation():
    # Two users on one identical single-antenna channel cannot both reach
    # SINR 3: the fixed point grows without bound and the relaxation
    # certifies infeasibility.
    ch = make_channels([[np.array([1.0 + 0j])], [np.array([1.0 + 0j])]], [1.0, 1.0])
    prob = CoordinationProblem(ch, loose_hardware(1), (2.0, 2.0))
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
    return build_relaxation(CoordinationProblem(channels, cfg.hardware, cfg.qos_targets)).conic


@pytest.mark.parametrize("seed,gamma,trial", STALLING_POOL_INSTANCES)
def test_stalling_relaxations_certify_within_an_iteration_budget(seed, gamma, trial):
    sol = cs.solve(_pool_relaxation(seed, gamma, trial))
    assert sol.status == cs.OPTIMAL
    assert sol.iterations <= 50


@pytest.mark.parametrize("seed,gamma,trial", STALLING_POOL_INSTANCES)
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
    # Criterion 7's sweep at N_BS=24 with one SCA, trial 13.  The relaxation
    # exits at reduced precision after 31 iterations, and its block (5, 0)
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
