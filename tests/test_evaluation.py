"""Solution evaluation: aggregate SINR arithmetic, reports, input checking."""

import numpy as np
import pytest

from conftest import loose_hardware, make_channels
from softcell.evaluation import evaluate
from softcell.exceptions import InvalidInputError


def test_single_user_sinr_and_rate_reference(single_user_unit_channel):
    h = single_user_unit_channel.h[0][0]
    beams = [[np.sqrt(3.0) * h]]   # ||h|| = 1, so 3 mW on the matched filter
    report = evaluate(beams, single_user_unit_channel, loose_hardware(1, rho=2.0), (2.0,))
    assert report.sinr[0] == pytest.approx(3.0, rel=1e-12)
    assert report.rate[0] == pytest.approx(2.0, rel=1e-12)
    assert report.qos_margin[0] == pytest.approx(0.0, abs=1e-12)
    assert report.p_dynamic_mw == pytest.approx(6.0, rel=1e-12)
    assert report.p_total_mw == pytest.approx(6.0, rel=1e-12)
    assert report.p_total_dbm == pytest.approx(10.0 * np.log10(6.0), rel=1e-12)
    assert report.serving == [(0,)]
    assert not report.multiflow[0]
    assert report.crosscheck_residual <= 1e-10


def test_zero_beams_give_zero_sinr_and_static_only_power():
    ch = make_channels([[np.array([1.0, 0.5j])]], [1.0])
    beams = [[np.zeros(2, dtype=complex)]]
    report = evaluate(beams, ch, loose_hardware(1, eta=0.0), (0.0,))
    assert report.sinr[0] == 0.0
    assert report.rate[0] == 0.0
    assert report.p_total_mw == 0.0
    assert report.p_total_dbm == float("-inf")
    assert report.serving == [()]


def test_orthogonal_users_see_no_interference():
    e0 = np.array([1.0 + 0j, 0.0])
    e1 = np.array([0.0, 1.0 + 0j])
    ch = make_channels([[e0], [e1]], [1.0, 1.0])
    beams = [[2.0 * e0], [3.0 * e1]]
    report = evaluate(beams, ch, loose_hardware(1), (1.0, 1.0))
    assert report.sinr[0] == pytest.approx(4.0, rel=1e-12)
    assert report.sinr[1] == pytest.approx(9.0, rel=1e-12)


def test_shared_channel_counts_cross_interference():
    e0 = np.array([1.0 + 0j, 0.0])
    ch = make_channels([[e0], [e0]], [1.0, 1.0])
    beams = [[e0.copy()], [e0.copy()]]
    report = evaluate(beams, ch, loose_hardware(1), (0.5, 0.5))
    # Each user receives 1 mW of signal and 1 mW of interference over 1 mW noise.
    assert report.sinr[0] == pytest.approx(0.5, rel=1e-12)
    assert report.sinr[1] == pytest.approx(0.5, rel=1e-12)


def test_own_signal_adds_across_transmitters():
    h_bs = np.array([1.0 + 0j])
    h_sca = np.array([1.0 + 0j])
    ch = make_channels([[h_bs, h_sca]], [1.0])
    beams = [[np.array([2.0 + 0j]), np.array([1.0 + 0j])]]
    report = evaluate(beams, ch, loose_hardware(2), (1.0,))
    # Non-coherent combining: powers 4 + 1 add, they do not beat as amplitudes.
    assert report.sinr[0] == pytest.approx(5.0, rel=1e-12)
    assert report.multiflow[0]
    assert report.serving == [(0, 1)]


def test_evaluation_is_pure():
    ch = make_channels([[np.array([1.0, 0.5j])]], [1.0])
    beams = [[np.array([0.3 + 0.1j, 0.2j])]]
    snapshot = beams[0][0].copy()
    a = evaluate(beams, ch, loose_hardware(1), (1.0,))
    b = evaluate(beams, ch, loose_hardware(1), (1.0,))
    assert np.array_equal(beams[0][0], snapshot)
    assert a.sinr[0] == b.sinr[0]
    assert a.p_total_mw == b.p_total_mw


def test_sinrs_match_a_per_link_loop():
    # A transmitter without antennas and users with zero beams included.
    rng = np.random.default_rng(12)
    antennas, K = [4, 0, 2, 3], 5

    def cn(n):
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    ch = make_channels([[cn(n) for n in antennas] for _ in range(K)], rng.uniform(0.5, 2.0, K))
    beams = [[cn(n) if k != 3 else np.zeros(n, dtype=complex) for n in antennas]
             for k in range(K)]
    expected = np.zeros(K)
    for k in range(K):
        own = interference = 0.0
        for i in range(K):
            for j in range(len(antennas)):
                gain = abs(np.vdot(ch.h[k][j], beams[i][j])) ** 2
                if i == k:
                    own += gain
                else:
                    interference += gain
        expected[k] = own / (interference + ch.sigma2[k])
    report = evaluate(beams, ch, loose_hardware(len(antennas)), (1.0,) * K)
    assert np.allclose(report.sinr, expected, rtol=1e-12, atol=0.0)
    assert report.crosscheck_residual <= 1e-12


def test_dimension_mismatches_are_rejected():
    ch = make_channels([[np.array([1.0, 0.5j])]], [1.0])
    hw = loose_hardware(1)
    with pytest.raises(InvalidInputError):
        evaluate([], ch, hw, (1.0,))
    with pytest.raises(InvalidInputError):
        evaluate([[np.zeros(2, dtype=complex)]], ch, hw, (1.0, 1.0))
    with pytest.raises(InvalidInputError):
        evaluate([[np.zeros(3, dtype=complex)]], ch, hw, (1.0,))
    with pytest.raises(InvalidInputError):
        evaluate([[np.zeros(2, dtype=complex), np.zeros(1, dtype=complex)]], ch, hw, (1.0,))
