"""Dynamic and static power accounting and the hardware parameter profile.

All powers are bookkept in mW (the unit of the noise variances); dBm appears
only at I/O boundaries.  Transmitter index 0 is the macro base station,
indices 1..S are the small-cell access points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidInputError

# Default hardware constants: amplifier efficiencies 1/rho, per-antenna circuit
# power eta (mW), per-antenna emission cap q (mW), subcarrier count C.
BS_EFFICIENCY = 0.388
SCA_EFFICIENCY = 0.052
BS_CIRCUIT_MW = 189.0
SCA_CIRCUIT_MW = 5.6
BS_ANTENNA_CAP_MW = 66.0
SCA_ANTENNA_CAP_MW = 0.08
DEFAULT_SUBCARRIERS = 600
CAP_TOL = 1e-6          # relative tolerance of check_power_constraints


@dataclass(frozen=True)
class HardwareProfile:
    """Per-transmitter amplifier, circuit and emission-cap parameters.

    rho[j] >= 1 is the amplifier inefficiency (emitted power is multiplied by
    rho[j] in the consumption model), eta[j] the circuit power per antenna in
    mW, per_antenna_limit[j] the cap q_j in mW applying to every antenna of
    transmitter j, and subcarriers the count C that the static power is
    shared over.
    """

    rho: tuple[float, ...]
    eta: tuple[float, ...]
    per_antenna_limit: tuple[float, ...]
    subcarriers: int = DEFAULT_SUBCARRIERS

    def __post_init__(self):
        if not (len(self.rho) == len(self.eta) == len(self.per_antenna_limit)):
            raise InvalidInputError("rho, eta and per_antenna_limit must have equal length")
        if len(self.rho) < 1:
            raise InvalidInputError("profile must cover at least the base station")
        if any(r < 1.0 for r in self.rho):
            raise InvalidInputError("amplifier inefficiency rho must be >= 1")
        if any(e < 0.0 for e in self.eta):
            raise InvalidInputError("circuit power eta must be >= 0")
        if any(q < 0.0 for q in self.per_antenna_limit):
            raise InvalidInputError("per-antenna limits must be >= 0")
        if self.subcarriers < 1:
            raise InvalidInputError("subcarrier count must be >= 1")

    @property
    def num_transmitters(self) -> int:
        return len(self.rho)

    @classmethod
    def default(cls, num_sca: int) -> "HardwareProfile":
        return cls(
            rho=(1.0 / BS_EFFICIENCY,) + (1.0 / SCA_EFFICIENCY,) * num_sca,
            eta=(BS_CIRCUIT_MW,) + (SCA_CIRCUIT_MW,) * num_sca,
            per_antenna_limit=(BS_ANTENNA_CAP_MW,) + (SCA_ANTENNA_CAP_MW,) * num_sca,
        )


class ConstraintSlack(NamedTuple):
    """Slack report for one per-antenna constraint (transmitter j, antenna l)."""

    transmitter: int
    antenna: int
    used_mw: float
    limit_mw: float
    slack_mw: float
    active: bool
    violated: bool


def dynamic_power(w: list, hw: HardwareProfile) -> float:
    """Amplifier-side consumption sum_j rho_j sum_k ||w_{k,j}||^2 in mW of the
    beamformer stacks w[j] (column k is w_{k,j})."""
    if len(w) > hw.num_transmitters:
        raise InvalidInputError("more beamformer stacks than transmitters in the profile")
    return float(sum(hw.rho[j] * np.vdot(w_j, w_j).real for j, w_j in enumerate(w)))


def circuit_power(hw: HardwareProfile, antennas) -> float:
    """Circuit consumption sum_j eta_j N_j / C in mW for the antenna counts
    N_j of transmitters 0, 1, ... (macro BS first)."""
    if any(n < 0 for n in antennas):
        raise InvalidInputError("antenna and site counts must be >= 0")
    if len(antennas) > len(hw.eta):
        raise InvalidInputError("hardware profile does not cover all SCA sites")
    return sum(eta * n for eta, n in zip(hw.eta, antennas)) / hw.subcarriers


def cap_usage(w: list, hw: HardwareProfile) -> list:
    """Per transmitter j of the beamformer stacks w[j], four arrays over its
    antennas l: (used, slack, active, violated), the emitted power
    sum_k |w_{k,j}[l]|^2, the slack q_j - used and the two flags.

    A cap is active when |slack| <= CAP_TOL*q and violated when
    slack < -CAP_TOL*q; with q = 0 the comparisons fall back to absolute CAP_TOL.
    """
    report = []
    for j, w_j in enumerate(w):
        q = hw.per_antenna_limit[j]
        margin = CAP_TOL * q if q > 0 else CAP_TOL
        used = (np.abs(w_j) ** 2).sum(axis=1)
        slack = q - used
        report.append((used, slack, np.abs(slack) <= margin, slack < -margin))
    return report


def check_power_constraints(w: list, hw: HardwareProfile) -> list[ConstraintSlack]:
    """Per-antenna usage vs. cap for every antenna of the beamformer stacks w[j]:
    one record per antenna, built from the Python values of cap_usage."""
    report = []
    for j, (used, slack, active, violated) in enumerate(cap_usage(w, hw)):
        report.extend(map(ConstraintSlack, repeat(j), range(len(used)), used.tolist(),
                          repeat(hw.per_antenna_limit[j]), slack.tolist(), active.tolist(),
                          violated.tolist()))
    return report


def mw_to_dbm(p_mw: float) -> float:
    if p_mw <= 0:
        raise InvalidInputError("dBm conversion requires a positive power")
    return float(10.0 * np.log10(p_mw))


def dbm_to_mw(p_dbm: float) -> float:
    return float(10.0 ** (p_dbm / 10.0))
