"""Scenario generation: geometry, propagation, covariances, reproducibility."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softcell.cli import full_paper_config
from softcell.coordination import CoordinationProblem, solve_optimal
from softcell.exceptions import InvalidInputError
from softcell.power import HardwareProfile, circuit_power
from softcell.rzf import rzf_solve
from softcell.scenario import (MACRO, SCA_NEAR, ScenarioConfig,
                               build_correlation, config_from_dict,
                               draw_channels, drop_users, load_config,
                               path_loss_db, realize_scenario, stream,
                               with_axis_value)


def small_config(**overrides):
    base = dict(cell_radius=0.5, num_users_uniform=2,
                sca_positions=((0.3, 0.0), (-0.3, 0.0)), users_per_sca=1,
                n_bs=4, n_sca=2, qos_targets=(2.0,) * 4, seed=123)
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def test_path_loss_reference_points():
    assert abs(path_loss_db(0.1, MACRO) - 110.5) < 1e-12
    assert abs(path_loss_db(1.0, MACRO) - 148.1) < 1e-12
    assert abs(path_loss_db(0.04, SCA_NEAR) - 85.06179973983887) < 1e-10
    assert abs(path_loss_db(0.001, SCA_NEAR) - 37.0) < 1e-10


def test_path_loss_clamps_below_one_meter():
    assert path_loss_db(1e-7, MACRO) == path_loss_db(1e-3, MACRO)
    assert path_loss_db(1e-7, SCA_NEAR) == path_loss_db(1e-3, SCA_NEAR)


def test_path_loss_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        path_loss_db(0.0, MACRO)
    with pytest.raises(InvalidInputError):
        path_loss_db(-1.0, MACRO)
    with pytest.raises(InvalidInputError):
        path_loss_db(0.1, "underwater")


@settings(max_examples=25, deadline=None)
@given(st.floats(1e-3, 10.0), st.floats(1.001, 2.0))
def test_path_loss_increases_with_distance(d, factor):
    assert path_loss_db(d * factor, MACRO) > path_loss_db(d, MACRO)
    assert path_loss_db(d * factor, SCA_NEAR) > path_loss_db(d, SCA_NEAR)


def test_noise_power_matches_the_dbm_figure():
    cfg = small_config()
    assert cfg.noise_variance_mw == pytest.approx(1.9952623149688827e-13, rel=1e-15)
    ch = realize_scenario(cfg, trial=0)
    assert np.all(ch.sigma2 == cfg.noise_variance_mw)


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_user_drops_respect_the_disc_geometry(seed):
    cfg = small_config(seed=seed)
    pos = drop_users(cfg, stream(cfg.seed, 0, 0))
    assert pos.shape == (cfg.num_users, 2)
    # Uniform users first, anywhere in the cell disc.
    assert np.all(np.hypot(pos[:2, 0], pos[:2, 1]) <= cfg.cell_radius + 1e-12)
    # Then one group per SCA, each inside its hotspot disc.
    for s, site in enumerate(cfg.sca_positions):
        group = pos[2 + s: 3 + s] - np.asarray(site)
        assert np.all(np.hypot(group[:, 0], group[:, 1]) <= cfg.sca_user_radius + 1e-12)


def test_config_counts_and_antenna_lookup():
    cfg = small_config()
    assert cfg.num_users == 4
    assert cfg.num_sca == 2
    assert cfg.antennas(0) == 4
    assert cfg.antennas(1) == cfg.antennas(2) == 2


# ---------------------------------------------------------------------------
# Covariances
# ---------------------------------------------------------------------------

def test_covariances_are_hermitian_psd_with_normalized_trace():
    cfg = small_config(shadowing_stddev=0.0)
    pos = drop_users(cfg, stream(cfg.seed, 0, 0))
    gains, R = build_correlation(cfg, pos, np.zeros((cfg.num_users, 3)))
    assert gains.shape == (cfg.num_users, 3)
    assert R.shape == (cfg.num_users, cfg.n_bs, cfg.n_bs)
    for k in range(cfg.num_users):
        d_bs = float(np.hypot(pos[k, 0], pos[k, 1]))
        gain = 10.0 ** (-path_loss_db(d_bs, MACRO) / 10.0)
        assert gains[k, 0] == pytest.approx(gain, rel=1e-12)
        Rk0 = R[k]
        assert np.abs(Rk0 - Rk0.conj().T).max() < 1e-14
        assert np.linalg.eigvalsh(Rk0)[0] >= -1e-12 * np.real(np.trace(Rk0))
        assert np.real(np.trace(Rk0)) == pytest.approx(cfg.n_bs * gain, rel=1e-12)
        # SCA covariances are gain * I: only the gain is built.
        assert np.all(gains[k, 1:] > 0)


def test_near_rule_switches_the_loss_model_at_the_boundary():
    cfg = small_config(num_users_uniform=2, users_per_sca=0, qos_targets=(2.0, 2.0))
    at = np.array([[0.3 + 0.04, 0.0], [0.3 + 0.0401, 0.0]])
    gains, _ = build_correlation(cfg, at, np.zeros((2, 3)))
    near_gain = 10.0 ** (-path_loss_db(0.04, SCA_NEAR) / 10.0)
    far_gain = 10.0 ** (-path_loss_db(0.0401, MACRO) / 10.0)
    assert gains[0, 1] == pytest.approx(near_gain, rel=1e-12)
    assert gains[1, 1] == pytest.approx(far_gain, rel=1e-12)


def test_shadowing_shape_is_validated():
    cfg = small_config()
    pos = drop_users(cfg, stream(cfg.seed, 0, 0))
    with pytest.raises(InvalidInputError):
        build_correlation(cfg, pos, np.zeros((cfg.num_users, 2)))


def test_fading_matches_the_covariance_in_sample_moments():
    cfg = small_config(num_users_uniform=1, users_per_sca=0, n_bs=2,
                       qos_targets=(2.0,), shadowing_stddev=0.0)
    pos = np.array([[0.2, 0.1]])
    gains, R = build_correlation(cfg, pos, np.zeros((1, 3)))
    target = R[0]
    trials = 4000
    acc = np.zeros((2, 2), dtype=complex)
    norms = 0.0
    for t in range(trials):
        ch = draw_channels(cfg, gains, R, pos, lambda k, j: stream(7, t, 2, k, j))
        v = ch.H[0][:, 0]
        acc += np.outer(v, v.conj())
        norms += float(np.vdot(v, v).real)
    emp = acc / trials
    rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
    assert rel < 0.05
    assert norms / trials == pytest.approx(np.real(np.trace(target)), rel=0.05)


def _steering_covariance(n, azimuth):
    """S S^H / (2n) from the 2n steering vectors within +-10 deg of azimuth."""
    angles = azimuth + np.linspace(-np.deg2rad(10.0), np.deg2rad(10.0), 2 * n)
    S = np.exp(1j * np.pi * np.outer(np.arange(n), np.sin(angles)))
    return S @ S.conj().T / (2 * n)


def _bs_links(cfg, trials):
    """(R, z, h) of every BS link of the given trials, as realize_scenario draws them."""
    for trial in trials:
        pos = drop_users(cfg, stream(cfg.seed, trial, 0))
        shadowing = cfg.shadowing_stddev * stream(cfg.seed, trial, 1).normal(
            size=(cfg.num_users, cfg.num_sca + 1))
        _, R = build_correlation(cfg, pos, shadowing)
        ch = realize_scenario(cfg, trial)
        for k in range(cfg.num_users):
            zr = stream(cfg.seed, trial, 2, k, 0).normal(size=(2, cfg.n_bs))
            yield R[k], (zr[0] + 1j * zr[1]) / np.sqrt(2.0), ch.H[0][:, k]


class _Basis:
    """Stand-in fading generator whose z is the unit vector e_k."""

    def __init__(self, k):
        self.k = k

    def normal(self, size):
        out = np.zeros(size)
        out[0, self.k] = np.sqrt(2.0)
        return out


@pytest.mark.parametrize("n", [1, 2, 16, 100])
def test_bs_covariance_is_the_steering_average_with_exact_trace(n):
    cfg = small_config(n_bs=n)
    rng = np.random.default_rng(n)
    pos = rng.uniform(-0.35, 0.35, size=(cfg.num_users, 2))
    shadowing = rng.normal(0.0, 7.0, size=(cfg.num_users, 3))
    _, R = build_correlation(cfg, pos, shadowing)
    for k in range(cfg.num_users):
        Rk = R[k]
        dist = float(np.hypot(pos[k, 0], pos[k, 1]))
        gain = 10.0 ** (-(path_loss_db(dist, MACRO) - shadowing[k, 0]) / 10.0)
        expected = gain * _steering_covariance(n, np.arctan2(pos[k, 1], pos[k, 0]))
        assert np.linalg.norm(Rk - expected) <= 1e-13 * np.linalg.norm(expected)
        # Exactly Hermitian, with every diagonal entry exactly the gain: the
        # trace is n * gain without a normalization step.
        assert np.array_equal(Rk, Rk.conj().T)
        assert np.array_equal(np.diag(Rk), np.full(n, gain, dtype=complex))


@pytest.mark.parametrize("cfg,trials", [
    (full_paper_config(), range(3)),
    (small_config(n_bs=16), range(5)),
    (small_config(n_bs=1), range(5)),
])
def test_bs_draw_is_the_eigendecomposition_root(cfg, trials):
    # The real pivoted-Cholesky root of U^H R U, applied to the link's own z,
    # lies within 5.4e-8 of the eigh root on paper trials 0-2 and within
    # 3.3e-8 at n = 16; on paper trials 0-2 the eigh root itself moves by up
    # to 5.7e-8 under a 1-ulp Hermitian change of R.
    for R, z, h in _bs_links(cfg, trials):
        w, V = np.linalg.eigh(R)
        reference = (V * np.sqrt(np.maximum(w, 0.0))) @ V.conj().T @ z
        assert np.linalg.norm(h - reference) <= 1e-6 * np.linalg.norm(reference)


@pytest.mark.parametrize("n", [1, 2, 3, 25, 100])
def test_the_toeplitz_covariance_is_real_symmetric_in_the_exchange_basis(n):
    # R is Hermitian Toeplitz, so J conj(R) J = R, and U = (I + iJ)/sqrt(2)
    # takes it to T = Re R - (Im R) J: exactly symmetric, and U^H R U to
    # roundoff.  Odd n has a fixed middle row under J.
    cfg = small_config(n_bs=n)
    rng = np.random.default_rng(n)
    pos = rng.uniform(-0.35, 0.35, size=(cfg.num_users, 2))
    _, R = build_correlation(cfg, pos, rng.normal(0.0, 7.0, size=(cfg.num_users, 3)))
    T = R.real - R.imag[..., ::-1]
    U = (np.eye(n) + 1j * np.eye(n)[::-1]) / np.sqrt(2.0)
    for Rk, Tk in zip(R, T):
        assert np.array_equal(Rk[::-1, ::-1].conj(), Rk)
        assert np.array_equal(Tk, Tk.T)
        assert np.linalg.norm(U.conj().T @ Rk @ U - Tk) <= 1e-15 * np.linalg.norm(Rk)


@pytest.mark.parametrize("n_bs", [1, 2, 3, 16, 25, 100])
def test_bs_root_is_hermitian_and_squares_to_the_covariance(n_bs):
    # With z = e_k for user k, column k of the drawn stack is column k of the
    # root applied to every user's copy of one covariance.
    cfg = small_config(n_bs=n_bs)
    gains, R = build_correlation(cfg, np.array([[0.2, 0.1]]), np.zeros((1, 3)))
    ch = draw_channels(cfg, np.repeat(gains, n_bs, axis=0), np.repeat(R, n_bs, axis=0),
                       np.zeros((n_bs, 2)), lambda k, j: _Basis(0 if j else k))
    root, R = ch.H[0], R[0]
    assert np.linalg.norm(root - root.conj().T) <= 1e-14 * np.linalg.norm(root)
    assert np.linalg.norm(root @ root - R) <= 1e-13 * np.linalg.norm(R)


@pytest.mark.parametrize("n_sca", [1, 2, 4])
def test_small_cell_draw_is_the_eigendecomposition_root(n_sca):
    # A small cell's covariance is gain * I, drawn as sqrt(gain) z: bit for bit
    # its eigendecomposition root R^{1/2} z.
    cfg = small_config(n_sca=n_sca)
    rng = np.random.default_rng(n_sca)
    pos = rng.uniform(-0.4, 0.4, size=(3, 2))
    gains, R = build_correlation(cfg, pos, rng.normal(0.0, 8.0, size=(3, 3)))
    ch = draw_channels(cfg, gains, R, pos, lambda k, j: stream(9, 0, 2, k, j))
    for k in range(3):
        for j in (1, 2):
            zr = stream(9, 0, 2, k, j).normal(size=(2, n_sca))
            z = (zr[0] + 1j * zr[1]) / np.sqrt(2.0)
            w, V = np.linalg.eigh(gains[k, j] * np.eye(n_sca, dtype=complex))
            root = (V * np.sqrt(np.maximum(w, 0.0))) @ V.conj().T
            assert np.array_equal(ch.H[j][:, k], root @ z)


# ---------------------------------------------------------------------------
# Reproducibility
# ---------------------------------------------------------------------------

def test_realizations_are_bitwise_reproducible():
    cfg = small_config()
    a = realize_scenario(cfg, trial=5)
    b = realize_scenario(cfg, trial=5)
    assert np.array_equal(a.user_positions, b.user_positions)
    for j in range(a.num_transmitters):
        assert np.array_equal(a.H[j], b.H[j])
    c = realize_scenario(cfg, trial=6)
    assert not np.array_equal(a.H[0][:, 0], c.H[0][:, 0])


def test_antenna_count_changes_leave_other_links_paired():
    # Per-link fading streams: growing the BS array must not disturb the SCA
    # links of the same trial, and vice versa.
    cfg8 = small_config(n_bs=8)
    cfg16 = small_config(n_bs=16)
    a, b = realize_scenario(cfg8, 3), realize_scenario(cfg16, 3)
    assert np.array_equal(a.user_positions, b.user_positions)
    for j in (1, 2):
        assert np.array_equal(a.H[j], b.H[j])
    cfg_s1 = small_config(n_sca=1)
    cfg_s4 = small_config(n_sca=4)
    c, d = realize_scenario(cfg_s1, 3), realize_scenario(cfg_s4, 3)
    assert np.array_equal(c.H[0], d.H[0])


def test_empty_scenario_realizes_cleanly():
    cfg = small_config(num_users_uniform=0, users_per_sca=0, qos_targets=())
    ch = realize_scenario(cfg)
    assert ch.num_users == 0
    assert ch.sigma2.shape == (0,)


def test_empty_scenario_solves_to_the_circuit_power():
    # Without users both solvers return empty beam stacks, and the stacks
    # still carry the antennas whose circuit power the topology pays.
    cfg = small_config(num_users_uniform=0, users_per_sca=0, qos_targets=())
    ch = realize_scenario(cfg)
    assert ch.antenna_counts == (4, 2, 2)
    prob = CoordinationProblem(ch, cfg.hardware, cfg.qos_targets)
    exact, _ = solve_optimal(prob)
    for sol in (exact, rzf_solve(prob)):
        assert [w_j.shape for w_j in sol.w] == [(4, 0), (2, 0), (2, 0)]
        assert sol.objective_dynamic == 0.0
        assert sol.objective_static == circuit_power(cfg.hardware, (4, 2, 2)) > 0.0


# ---------------------------------------------------------------------------
# Config I/O
# ---------------------------------------------------------------------------

def test_config_json_roundtrip(tmp_path):
    data = {
        "cell_radius": 0.4, "num_users_uniform": 3,
        "sca_positions": [[0.2, 0.0]], "users_per_sca": 2,
        "n_bs": 8, "n_sca": 2, "qos_targets": 1.5, "seed": 9,
        "hardware": {"rho": [2.5, 19.0], "eta": [100.0, 5.0],
                     "per_antenna_limit": [50.0, 0.1]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    cfg = load_config(str(path))
    assert cfg.cell_radius == 0.4
    assert cfg.qos_targets == (1.5,) * 5
    assert cfg.hardware.rho == (2.5, 19.0)
    assert cfg.hardware.subcarriers == 600


def test_unknown_config_key_is_rejected():
    data = {"cell_radius": 0.4, "num_users_uniform": 1, "sca_positions": [],
            "users_per_sca": 0, "n_bs": 4, "n_sca": 0, "qos_targets": [2.0], "seed": 0}
    with pytest.raises(InvalidInputError):
        config_from_dict(data | {"frequency_plan": "A"})
    # The path loss is fixed for a 2 GHz carrier: no key pretends otherwise.
    with pytest.raises(InvalidInputError):
        config_from_dict(data | {"carrier_freq": 3.5})
    # The subcarrier count belongs to the hardware profile alone.
    with pytest.raises(InvalidInputError):
        config_from_dict(data | {"num_subcarriers": 1200})
    # A misspelt optional hardware key would otherwise leave its default in place.
    hardware = {"rho": [2.5], "eta": [100.0], "per_antenna_limit": [50.0], "subcarrier": 1200}
    with pytest.raises(InvalidInputError, match="unknown hardware keys"):
        config_from_dict(data | {"hardware": hardware})


@pytest.mark.parametrize("key", ["cell_radius", "num_users_uniform", "users_per_sca",
                                 "n_bs", "n_sca", "seed"])
def test_missing_config_key_is_named(key):
    data = {"cell_radius": 0.4, "num_users_uniform": 1, "users_per_sca": 0,
            "n_bs": 4, "n_sca": 0, "seed": 0}
    with pytest.raises(InvalidInputError, match=key):
        config_from_dict({k: v for k, v in data.items() if k != key})
    with pytest.raises(InvalidInputError, match="missing config keys"):
        config_from_dict({})


@pytest.mark.parametrize("key", ["rho", "eta", "per_antenna_limit"])
def test_missing_hardware_key_is_named(key):
    hardware = {"rho": [2.5], "eta": [100.0], "per_antenna_limit": [50.0]}
    data = {"cell_radius": 0.4, "num_users_uniform": 1, "users_per_sca": 0,
            "n_bs": 4, "n_sca": 0, "seed": 0,
            "hardware": {k: v for k, v in hardware.items() if k != key}}
    with pytest.raises(InvalidInputError, match=f"missing hardware keys: \\['{key}'\\]"):
        config_from_dict(data)


def test_axis_replacement_constructs_the_swept_config():
    cfg = small_config()
    assert with_axis_value(cfg, "n_bs", 24).n_bs == 24
    assert with_axis_value(cfg, "n_sca", 3).n_sca == 3
    swept = with_axis_value(cfg, "qos", 3.0)
    assert swept.qos_targets == (3.0,) * cfg.num_users
    with pytest.raises(InvalidInputError):
        with_axis_value(cfg, "qos_db", 3.0)


def test_config_validation_errors():
    with pytest.raises(InvalidInputError):
        small_config(cell_radius=0.0)
    with pytest.raises(InvalidInputError):
        small_config(sca_positions=((0.6, 0.0),))  # outside the cell disc
    with pytest.raises(InvalidInputError):
        small_config(qos_targets=(2.0,) * 3)       # wrong length
    with pytest.raises(InvalidInputError):
        small_config(qos_targets=(2.0, 2.0, 2.0, -1.0))
    with pytest.raises(InvalidInputError):
        small_config(n_bs=0)
    with pytest.raises(InvalidInputError):
        small_config(seed=-1)
    with pytest.raises(InvalidInputError):
        small_config(num_users_uniform=-1)
