"""Power accounting: consumption model, caps, unit conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softcell.exceptions import InvalidInputError
from softcell.power import (CAP_TOL, ConstraintSlack, HardwareProfile,
                            check_power_constraints, circuit_power, dbm_to_mw,
                            dynamic_power, mw_to_dbm)


def test_default_profile_carries_the_hardware_table():
    hw = HardwareProfile.default(num_sca=4)
    assert hw.num_transmitters == 5
    assert hw.rho[0] == pytest.approx(1.0 / 0.388, rel=1e-12)
    assert hw.rho[1] == pytest.approx(1.0 / 0.052, rel=1e-12)
    assert hw.eta == (189.0,) + (5.6,) * 4
    assert hw.per_antenna_limit == (66.0,) + (0.08,) * 4
    assert hw.subcarriers == 600


def test_profile_validation():
    with pytest.raises(InvalidInputError):
        HardwareProfile(rho=(2.0,), eta=(1.0, 1.0), per_antenna_limit=(1.0,))
    with pytest.raises(InvalidInputError):
        HardwareProfile(rho=(), eta=(), per_antenna_limit=())
    with pytest.raises(InvalidInputError):
        HardwareProfile(rho=(0.9,), eta=(1.0,), per_antenna_limit=(1.0,))
    with pytest.raises(InvalidInputError):
        HardwareProfile(rho=(2.0,), eta=(-1.0,), per_antenna_limit=(1.0,))
    with pytest.raises(InvalidInputError):
        HardwareProfile(rho=(2.0,), eta=(1.0,), per_antenna_limit=(-1.0,))
    with pytest.raises(InvalidInputError):
        HardwareProfile(rho=(2.0,), eta=(1.0,), per_antenna_limit=(1.0,), subcarriers=0)


def test_dynamic_power_weights_emissions_by_inefficiency():
    hw = HardwareProfile(rho=(2.0, 10.0), eta=(0.0, 0.0), per_antenna_limit=(1.0, 1.0))
    w = [
        np.array([[1.0 + 0j, 0.0j], [1.0j, 0.0j]]),   # users 0 and 1 emit 2 mW and 0 mW
        np.array([[0.5 + 0j, 1.0j]]),                 # 0.25 mW and 1 mW
    ]
    assert dynamic_power(w, hw) == pytest.approx(2.0 * 2.0 + 10.0 * 1.25, rel=1e-12)


def test_dynamic_power_ignores_absent_beams_and_checks_width():
    hw = HardwareProfile(rho=(2.0,), eta=(0.0,), per_antenna_limit=(1.0,))
    # A transmitter without antennas, and one without users, emit nothing.
    assert dynamic_power([np.zeros((0, 2), dtype=complex)], hw) == 0.0
    assert dynamic_power([np.zeros((3, 0), dtype=complex)], hw) == 0.0
    with pytest.raises(InvalidInputError):
        dynamic_power([np.ones((1, 1), dtype=complex), np.ones((1, 1), dtype=complex)], hw)


def test_static_power_reference_value_and_monotonicity():
    hw = HardwareProfile.default(num_sca=4)
    ref = (189.0 * 100 + 4 * 5.6 * 1) / 600.0
    assert circuit_power(hw, (100, 1, 1, 1, 1)) == pytest.approx(ref, rel=1e-12)
    assert circuit_power(hw, (100, 1, 1, 1, 1)) > circuit_power(hw, (100, 1, 1, 1))
    assert circuit_power(hw, (101, 1, 1, 1, 1)) > circuit_power(hw, (100, 1, 1, 1, 1))
    assert circuit_power(hw, (100, 2, 2, 2, 2)) > circuit_power(hw, (100, 1, 1, 1, 1))
    with pytest.raises(InvalidInputError):
        circuit_power(hw, (-1, 1, 1, 1, 1))
    with pytest.raises(InvalidInputError):
        circuit_power(hw, (100, 1, 1, 1, 1, 1))                 # five small cells, four profiled


def test_constraint_report_flags_active_and_violated_antennas():
    hw = HardwareProfile(rho=(2.0, 2.0), eta=(0.0, 0.0), per_antenna_limit=(1.0, 4.0))
    w = [
        np.array([[1.0 + 0j, 0.0j], [0.5 + 0j, 1.0 + 0j]]),   # column k: user k's BS beam
        np.array([[1.0 + 0j, 0.5j]]),
    ]
    report = {(s.transmitter, s.antenna): s for s in check_power_constraints(w, hw)}
    assert report[(0, 0)].active and not report[(0, 0)].violated
    assert report[(0, 0)].used_mw == pytest.approx(1.0)
    # Antenna 1 of the BS sums 0.25 + 1.0 across users: above the 1.0 cap.
    assert report[(0, 1)].violated
    assert report[(0, 1)].slack_mw == pytest.approx(-0.25)
    # The SCA antenna uses 1.25 of its 4.0 budget: neither active nor violated.
    assert not report[(1, 0)].active and not report[(1, 0)].violated
    assert report[(1, 0)].used_mw == pytest.approx(1.25)


def test_zero_cap_uses_absolute_tolerance():
    hw = HardwareProfile(rho=(2.0,), eta=(0.0,), per_antenna_limit=(0.0,))
    quiet = [np.array([[1e-9 + 0j]])]
    loud = [np.array([[1e-2 + 0j]])]
    assert not check_power_constraints(quiet, hw)[0].violated
    assert check_power_constraints(loud, hw)[0].violated


def _loop_slacks(w, hw):
    """check_power_constraints in its per-antenna loop form."""
    report = []
    for j, w_j in enumerate(w):
        q = hw.per_antenna_limit[j]
        margin = CAP_TOL * q if q > 0 else CAP_TOL
        for antenna, u in enumerate((np.abs(w_j) ** 2).sum(axis=1)):
            slack = q - float(u)
            report.append(ConstraintSlack(j, antenna, float(u), q, slack,
                                          active=abs(slack) <= margin,
                                          violated=slack < -margin))
    return report


def test_array_slacks_are_the_per_antenna_loop_bit_for_bit():
    # Usage around every cap: well inside, within CAP_TOL either side, and
    # beyond it; a zero cap read at the absolute tolerance, one of its
    # antennas exactly on it, and a transmitter without antennas.  repr
    # tells apart -0.0, numpy scalars and numpy bools.
    rng = np.random.default_rng(5)
    caps = (66.0, 0.08, 0.0, 0.08, 3.0)
    antennas, K = (40, 3, 4, 0, 2), 6
    hw = HardwareProfile(rho=(2.0,) * 5, eta=(0.0,) * 5, per_antenna_limit=caps)
    scale = np.array([0.2, 1.0 - 0.9e-6, 1.0 + 0.9e-6, 1.0 + 1.1e-6, 1.5])
    w = []
    for q, n in zip(caps, antennas):
        w_j = rng.normal(size=(n, K)) + 1j * rng.normal(size=(n, K))
        used = (np.abs(w_j) ** 2).sum(axis=1)
        target = (q or 1.0) * scale[np.arange(n) % 5]
        w.append(w_j * np.sqrt(target / used)[:, None])
    w[2][0] = 0.0
    w[2][1] *= np.sqrt(1e-9 / (np.abs(w[2][1]) ** 2).sum())
    w[2][3] = 0.0
    w[2][3, 0] = 1e-3               # usage exactly CAP_TOL: active, on the boundary
    report = check_power_constraints(w, hw)
    reference = _loop_slacks(w, hw)
    assert repr(report) == repr(reference) and report == reference
    assert len(report) == sum(antennas)
    flags = {(s.active, s.violated) for s in report}
    assert flags == {(False, False), (True, False), (False, True)}
    zero_cap = [s for s in report if s.transmitter == 2]
    assert [(s.active, s.violated) for s in zero_cap] == [(True, False), (True, False),
                                                          (False, True), (True, False)]
    assert zero_cap[3].slack_mw == -CAP_TOL


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-12, 1e9))
def test_dbm_conversion_roundtrip(p_mw):
    assert dbm_to_mw(mw_to_dbm(p_mw)) == pytest.approx(p_mw, rel=1e-12)


def test_dbm_conversion_reference_points_and_domain():
    assert mw_to_dbm(1.0) == 0.0
    assert mw_to_dbm(100.0) == pytest.approx(20.0, rel=1e-14)
    assert dbm_to_mw(-127.0) == pytest.approx(1.9952623149688827e-13, rel=1e-15)
    with pytest.raises(InvalidInputError):
        mw_to_dbm(0.0)
    with pytest.raises(InvalidInputError):
        mw_to_dbm(-3.0)
