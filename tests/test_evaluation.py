"""Solution evaluation: aggregate SINR arithmetic, reports, input checking."""

import numpy as np
import pytest

from conftest import loose_hardware, make_channels, stacks
from softcell.evaluation import evaluate, link_powers, serving_sets
from softcell.exceptions import InvalidInputError
from softcell.power import HardwareProfile, check_power_constraints, dynamic_power


def test_single_user_sinr_and_rate_reference(single_user_unit_channel):
    w = [np.sqrt(3.0) * single_user_unit_channel.H[0]]   # ||h|| = 1: 3 mW on the matched filter
    report = evaluate(w, single_user_unit_channel, loose_hardware(1, rho=2.0), (2.0,))
    assert report.sinr[0] == pytest.approx(3.0, rel=1e-12)
    assert report.rate[0] == pytest.approx(2.0, rel=1e-12)
    assert report.qos_margin[0] == pytest.approx(0.0, abs=1e-12)
    assert report.p_dynamic_mw == pytest.approx(6.0, rel=1e-12)
    assert report.p_total_mw == pytest.approx(6.0, rel=1e-12)
    assert report.p_total_dbm == pytest.approx(10.0 * np.log10(6.0), rel=1e-12)
    assert report.serving == [(0,)]
    assert not report.multiflow[0]


def test_zero_beams_give_zero_sinr_and_static_only_power():
    ch = make_channels([[np.array([1.0, 0.5j])]], [1.0])
    w = [np.zeros((2, 1), dtype=complex)]
    report = evaluate(w, ch, loose_hardware(1, eta=0.0), (0.0,))
    assert report.sinr[0] == 0.0
    assert report.rate[0] == 0.0
    assert report.p_total_mw == 0.0
    assert report.p_total_dbm == float("-inf")
    assert report.serving == [()]


def test_orthogonal_users_see_no_interference():
    e0 = np.array([1.0 + 0j, 0.0])
    e1 = np.array([0.0, 1.0 + 0j])
    ch = make_channels([[e0], [e1]], [1.0, 1.0])
    w = [np.column_stack([2.0 * e0, 3.0 * e1])]
    report = evaluate(w, ch, loose_hardware(1), (1.0, 1.0))
    assert report.sinr[0] == pytest.approx(4.0, rel=1e-12)
    assert report.sinr[1] == pytest.approx(9.0, rel=1e-12)


def test_shared_channel_counts_cross_interference():
    e0 = np.array([1.0 + 0j, 0.0])
    ch = make_channels([[e0], [e0]], [1.0, 1.0])
    w = [np.column_stack([e0, e0])]
    report = evaluate(w, ch, loose_hardware(1), (0.5, 0.5))
    # Each user receives 1 mW of signal and 1 mW of interference over 1 mW noise.
    assert report.sinr[0] == pytest.approx(0.5, rel=1e-12)
    assert report.sinr[1] == pytest.approx(0.5, rel=1e-12)


def test_own_signal_adds_across_transmitters():
    h_bs = np.array([1.0 + 0j])
    h_sca = np.array([1.0 + 0j])
    ch = make_channels([[h_bs, h_sca]], [1.0])
    w = [np.array([[2.0 + 0j]]), np.array([[1.0 + 0j]])]
    report = evaluate(w, ch, loose_hardware(2), (1.0,))
    # Non-coherent combining: powers 4 + 1 add, they do not beat as amplitudes.
    assert report.sinr[0] == pytest.approx(5.0, rel=1e-12)
    assert report.multiflow[0]
    assert report.serving == [(0, 1)]


def test_evaluation_is_pure():
    ch = make_channels([[np.array([1.0, 0.5j])]], [1.0])
    w = [np.array([[0.3 + 0.1j], [0.2j]])]
    snapshot = w[0].copy()
    a = evaluate(w, ch, loose_hardware(1), (1.0,))
    b = evaluate(w, ch, loose_hardware(1), (1.0,))
    assert np.array_equal(w[0], snapshot)
    assert a.sinr[0] == b.sinr[0]
    assert a.p_total_mw == b.p_total_mw


def test_sinrs_match_a_per_link_loop():
    # A transmitter without antennas and users with zero beams included.  The
    # SINRs, link powers, consumption and per-antenna usage of the stacks are
    # checked against loops over their columns w_{k,j} = w[j][:, k].
    rng = np.random.default_rng(12)
    antennas, K = [4, 0, 2, 3], 5

    def cn(n):
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    ch = make_channels([[cn(n) for n in antennas] for _ in range(K)], rng.uniform(0.5, 2.0, K))
    w = stacks([[cn(n) if k != 3 else np.zeros(n, dtype=complex) for n in antennas]
                for k in range(K)])
    hw = HardwareProfile(rho=(1.5, 2.0, 4.0, 8.0), eta=(0.0,) * 4,
                         per_antenna_limit=(2.0, 2.0, 6.0, 50.0))
    expected = np.zeros(K)
    for k in range(K):
        own = interference = 0.0
        for i in range(K):
            for j in range(len(antennas)):
                gain = abs(np.vdot(ch.H[j][:, k], w[j][:, i])) ** 2
                if i == k:
                    own += gain
                else:
                    interference += gain
        expected[k] = own / (interference + ch.sigma2[k])
    report = evaluate(w, ch, hw, (1.0,) * K)
    assert np.allclose(report.sinr, expected, rtol=1e-12, atol=0.0)

    power, consumed, used = np.zeros((K, len(antennas))), 0.0, {}
    for j, n in enumerate(antennas):
        for k in range(K):
            power[k, j] = np.vdot(w[j][:, k], w[j][:, k]).real
            consumed += hw.rho[j] * power[k, j]
            for l in range(n):
                used[(j, l)] = used.get((j, l), 0.0) + abs(w[j][l, k]) ** 2
    assert np.allclose(link_powers(w), power, rtol=1e-12, atol=0.0)
    assert power[3].sum() == 0.0 and power[:, 1].sum() == 0.0
    assert dynamic_power(w, hw) == pytest.approx(consumed, rel=1e-12)
    assert report.p_dynamic_mw == pytest.approx(consumed, rel=1e-12)
    slacks = check_power_constraints(w, hw)
    assert [(s.transmitter, s.antenna) for s in slacks] == sorted(used)
    for s in slacks:
        u, q = used[(s.transmitter, s.antenna)], hw.per_antenna_limit[s.transmitter]
        assert s.used_mw == pytest.approx(u, rel=1e-12)
        assert s.slack_mw == pytest.approx(q - u, rel=1e-12, abs=1e-12)
        assert s.violated == (u > q * (1.0 + 1e-6))
    assert any(s.violated for s in slacks) and not all(s.violated for s in slacks)


def test_serving_sets_are_the_flatnonzero_loop():
    # Rows with no, one and several serving links, a (K, 0) mask and an
    # empty one; each set is a tuple of Python ints, as the loop builds it.
    rng = np.random.default_rng(3)
    masks = [rng.random((40, 5)) < p for p in (0.0, 0.2, 0.5, 1.0)]
    masks += [np.zeros((3, 0), dtype=bool), np.zeros((0, 5), dtype=bool)]
    for links in masks:
        reference = [tuple(int(j) for j in np.flatnonzero(row)) for row in links]
        assert repr(serving_sets(links)) == repr(reference)


def test_dimension_mismatches_are_rejected():
    ch = make_channels([[np.array([1.0, 0.5j])]], [1.0])      # K = 1, one 2-antenna transmitter
    hw = loose_hardware(2)
    w = [np.zeros((2, 1), dtype=complex)]
    assert evaluate(w, ch, hw, (1.0,)).sinr[0] == 0.0
    with pytest.raises(InvalidInputError):
        evaluate(w, ch, hw, (1.0, 1.0))                         # one target too many
    with pytest.raises(InvalidInputError):
        evaluate([], ch, hw, (1.0,))                            # no stack
    with pytest.raises(InvalidInputError):
        evaluate(w + w, ch, hw, (1.0,))                         # one stack too many
    with pytest.raises(InvalidInputError):
        evaluate([np.zeros((3, 1), dtype=complex)], ch, hw, (1.0,))   # wrong antenna count
    with pytest.raises(InvalidInputError):
        evaluate([np.zeros((2, 2), dtype=complex)], ch, hw, (1.0,))   # wrong K
    with pytest.raises(InvalidInputError):
        evaluate([np.zeros(2, dtype=complex)], ch, hw, (1.0,))        # a column, not a stack
