"""Random scenario generation: user drops, path loss, shadowing, fading.

Geometry lives in km with the macro base station at the origin.  Every random
quantity is drawn from a named substream of the configured seed, so the full
(config, trial) -> ChannelSet map is pure and the simulation stays
reproducible under any execution order:

    substream (trial, 0)        user drops
    substream (trial, 1)        shadowing, one draw per (user, transmitter)
    substream (trial, 2, k, j)  small-scale fading of link (k, j)

Per-link fading streams keep a link's realization unchanged when an antenna
count elsewhere in the network changes, which pairs the Monte Carlo trials
across sweep axis values.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpstrf

from .exceptions import InvalidInputError
from .power import DEFAULT_SUBCARRIERS, HardwareProfile

MACRO = "macro"
SCA_NEAR = "sca_near"

# Table geometry/propagation constants: the near-SCA loss rule applies below
# this distance regardless of which SCA the user was dropped around.
NEAR_SCA_KM = 0.04
MIN_DISTANCE_KM = 1e-3
_REJECTION_LIMIT = 10 ** 6

_STREAM_DROPS = 0
_STREAM_SHADOWING = 1
_STREAM_FADING = 2


@dataclass(frozen=True)
class ScenarioConfig:
    cell_radius: float                      # km
    num_users_uniform: int
    sca_positions: tuple[tuple[float, float], ...]
    users_per_sca: int
    n_bs: int
    n_sca: int
    qos_targets: tuple[float, ...]          # bits/s/Hz per user
    seed: int
    sca_user_radius: float = 0.04           # km
    shadowing_stddev: float = 7.0           # dB
    noise_variance_dbm: float = -127.0
    hardware: HardwareProfile | None = None

    def __post_init__(self):
        if self.cell_radius <= 0:
            raise InvalidInputError("cell_radius must be > 0")
        if self.num_users_uniform < 0 or self.users_per_sca < 0:
            raise InvalidInputError("user counts must be >= 0")
        for pos in self.sca_positions:
            if np.hypot(pos[0], pos[1]) >= self.cell_radius:
                raise InvalidInputError(f"SCA at {pos} is not strictly inside the cell disc")
        if self.n_bs < 1:
            raise InvalidInputError("n_bs must be >= 1")
        if self.n_sca < 0:
            raise InvalidInputError("n_sca must be >= 0")
        if self.sca_user_radius <= 0:
            raise InvalidInputError("sca_user_radius must be > 0")
        if len(self.qos_targets) != self.num_users:
            raise InvalidInputError(
                f"qos_targets has {len(self.qos_targets)} entries for {self.num_users} users")
        if any(g < 0 for g in self.qos_targets):
            raise InvalidInputError("QoS targets must be >= 0")
        if not 0 <= self.seed < 2 ** 64:
            raise InvalidInputError("seed must fit in 64 bits")
        hw = self.hardware
        if hw is None:
            hw = HardwareProfile.default(self.num_sca)
            object.__setattr__(self, "hardware", hw)
        if hw.num_transmitters < self.num_sca + 1:
            raise InvalidInputError("hardware profile does not cover all transmitters")

    @property
    def num_sca(self) -> int:
        return len(self.sca_positions)

    @property
    def num_users(self) -> int:
        return self.num_users_uniform + self.users_per_sca * self.num_sca

    def antennas(self, j: int) -> int:
        return self.n_bs if j == 0 else self.n_sca

    @property
    def noise_variance_mw(self) -> float:
        return 10.0 ** (self.noise_variance_dbm / 10.0)


@dataclass
class ChannelSet:
    """One realization: per-transmitter channel stacks, noise and geometry."""

    H: list            # H[j], (antennas(j), K) complex: column k is h_{k,j}
    sigma2: np.ndarray  # per-user noise power, mW
    user_positions: np.ndarray  # (K, 2) km

    @property
    def num_users(self) -> int:
        return self.H[0].shape[1] if self.H else 0

    @property
    def num_transmitters(self) -> int:
        return len(self.H)

    def antennas(self, j: int) -> int:
        return self.H[j].shape[0]

    @property
    def antenna_counts(self) -> tuple[int, ...]:
        return tuple(H_j.shape[0] for H_j in self.H)


def stream(seed: int, *key: int) -> np.random.Generator:
    """Named, splittable substream of the root seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def drop_users(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Sample user positions: uniform-in-disc users first, then per-SCA groups."""
    points = [_disc_points(rng, config.num_users_uniform, (0.0, 0.0), config.cell_radius)]
    for pos in config.sca_positions:
        points.append(_disc_points(rng, config.users_per_sca, pos, config.sca_user_radius))
    return np.vstack(points) if points else np.zeros((0, 2))


def _disc_points(rng: np.random.Generator, count: int, center, radius: float) -> np.ndarray:
    """Rejection sampling from the bounding square of the disc."""
    out = np.empty((count, 2))
    filled = 0
    for _ in range(_REJECTION_LIMIT):
        if filled == count:
            break
        cand = rng.uniform(-radius, radius, size=2)
        if cand[0] ** 2 + cand[1] ** 2 <= radius ** 2:
            out[filled] = cand + np.asarray(center)
            filled += 1
    else:
        raise RuntimeError("rejection sampler failed to terminate")
    return out


# The loss constants are those of a 2 GHz carrier.
def path_loss_db(distance_km: float, link_kind: str) -> float:
    """Distance-dependent path and penetration loss in dB."""
    if not distance_km > 0:
        raise InvalidInputError("distance must be > 0")
    d = max(distance_km, MIN_DISTANCE_KM)
    if link_kind == MACRO:
        return 148.1 + 37.6 * np.log10(d)
    if link_kind == SCA_NEAR:
        return 127.0 + 30.0 * np.log10(d)
    raise InvalidInputError(f"unknown link kind {link_kind!r}")


def build_correlation(config: ScenarioConfig, positions: np.ndarray,
                      shadowing_db: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (K, T) link gains and the (K, n, n) BS covariances
    R[k] = gain[k, 0] * (angular model); a small cell's covariance is gain * I.

    The linear gain inverts (path loss - shadowing) dB.  The near-SCA loss
    formula applies to any (user, SCA) pair within NEAR_SCA_KM of each other.
    The BS model S S^H / (2n) averages the half-wavelength ULA steering
    vectors S[a, m] = exp(i pi a sin theta_m) over 2n angles within +-10 deg
    of the user's azimuth.  It is Hermitian Toeplitz: entry (a, b) is t[a - b]
    with t[d] = (1/2n) sum_m e_m^d and e_m = exp(i pi sin theta_m), so its
    diagonal is exactly 1 and the trace of R is n * gain.  The powers e_m^d
    are one running product for all users.
    """
    K = len(positions)
    if shadowing_db.shape != (K, config.num_sca + 1):
        raise InvalidInputError("need one shadowing draw per (user, transmitter) link")
    sites = [(0.0, 0.0)] + list(config.sca_positions)
    gains = np.empty((K, len(sites)))
    for k in range(K):
        for j, site in enumerate(sites):
            delta = positions[k] - np.asarray(site)
            dist = float(np.hypot(delta[0], delta[1]))
            if dist <= 0:
                dist = MIN_DISTANCE_KM
            kind = SCA_NEAR if (j > 0 and dist <= NEAR_SCA_KM) else MACRO
            gains[k, j] = 10.0 ** (-(path_loss_db(dist, kind) - shadowing_db[k, j]) / 10.0)
    n = config.n_bs
    spread = np.deg2rad(10.0)
    azimuths = np.arctan2(positions[:, 1], positions[:, 0])
    e = np.exp(1j * np.pi * np.sin(azimuths[:, None] + np.linspace(-spread, spread, 2 * n)))
    t = np.empty((K, n), dtype=complex)
    t[:, 0] = 1.0
    power = e.copy()
    for d in range(1, n):
        t[:, d] = power.sum(axis=1) / (2 * n)
        power *= e
    # Column n - 1 + d holds t[d], and t[-d] = conj(t[d]).
    diagonals = gains[:, :1] * np.concatenate([t[:, :0:-1].conj(), t], axis=1)
    return gains, diagonals[:, (n - 1) + np.subtract.outer(np.arange(n), np.arange(n))]


def draw_channels(config: ScenarioConfig, gains: np.ndarray, R_bs: np.ndarray,
                  positions: np.ndarray, fading_rng) -> ChannelSet:
    """h_{k,j} = R^{1/2} z with z standard circular complex Gaussian, for the
    gains and BS covariances of build_correlation.

    fading_rng(k, j) must return the generator for link (k, j).  A small
    cell's root is sqrt(gain) I.  The BS covariance R is Hermitian Toeplitz,
    hence centro-Hermitian (J conj(R) J = R, J the exchange matrix), so the
    unitary U = (I + iJ)/sqrt(2) takes it to T = U^H R U = Re R - (Im R) J,
    real and exactly symmetric, and R^{1/2} = U T^{1/2} U^H.  T is
    numerically low-rank: its pivoted Cholesky factor T = P L L^T P^T (LAPACK
    dpstrf at its default rank cutoff, n * ulp * max diag; the input stays
    above L's diagonal) has r columns, and with the real thin SVD
    L = V S W^T the root of T is P V S V^T P^T.  U^H z = (z - i Jz)/sqrt(2)
    and U y = (y + i Jy)/sqrt(2) are flips, so no complex n x n product is
    formed.
    Each link keeps its own stream: z is drawn per link, and the flips, the
    recombination and the small cells' sqrt(gain) z are each one array
    operation over all users; only the factorization, the SVD and the two
    products with V run per user.  Each stack H[j] is the transpose of a
    C-order (K, n) array, so every column h_{k,j} is contiguous.
    """
    K, n, m, S = len(gains), config.n_bs, config.n_sca, config.num_sca
    lower = np.tri(n)
    T = R_bs.real - R_bs.imag[..., ::-1]
    zr = np.array([fading_rng(k, 0).normal(size=(2, n)) for k in range(K)]).reshape(K, 2, n)
    z = (zr[:, 0] + 1j * zr[:, 1]) / np.sqrt(2.0)
    u = z - 1j * z[:, ::-1]
    y = np.empty_like(z)
    for k in range(K):
        c, piv, rank, _ = dpstrf(T[k], lower=1)
        V, s, _ = np.linalg.svd(c[:, :rank] * lower[:, :rank], full_matrices=False)
        y[k, piv - 1] = V @ (s * (u[k, piv - 1] @ V))
    H = [((y + 1j * y[:, ::-1]) / 2.0).T]
    # (S, K, 2, m): the draws of small cell j + 1 form one C-order (K, m) slab.
    zs = np.array([[fading_rng(k, j).normal(size=(2, m)) for k in range(K)]
                   for j in range(1, S + 1)]).reshape(S, K, 2, m)
    rows = np.sqrt(gains[:, 1:].T)[..., None] * ((zs[:, :, 0] + 1j * zs[:, :, 1]) / np.sqrt(2.0))
    H.extend(rows_j.T for rows_j in rows)
    sigma2 = np.full(K, config.noise_variance_mw)
    return ChannelSet(H=H, sigma2=sigma2, user_positions=np.asarray(positions))


def realize_scenario(config: ScenarioConfig, trial: int = 0) -> ChannelSet:
    """Full deterministic (config, trial) -> ChannelSet realization."""
    positions = drop_users(config, stream(config.seed, trial, _STREAM_DROPS))
    shadowing = config.shadowing_stddev * stream(config.seed, trial, _STREAM_SHADOWING).normal(
        size=(config.num_users, config.num_sca + 1))
    gains, R_bs = build_correlation(config, positions, shadowing)
    return draw_channels(
        config, gains, R_bs, positions,
        lambda k, j: stream(config.seed, trial, _STREAM_FADING, k, j))


def load_config(path: str) -> ScenarioConfig:
    """Read a ScenarioConfig from a JSON file keyed exactly by the field names.

    `hardware`, when present, is a nested object with HardwareProfile field
    names.  A scalar `qos_targets` is broadcast to all users.
    """
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def _check_keys(given, cls, what: str, defaulted=()) -> None:
    """Reject keys that are not fields of the dataclass cls, and fields without
    a default (other than those in `defaulted`) that are not given."""
    fields = cls.__dataclass_fields__
    unknown = set(given) - set(fields)
    if unknown:
        raise InvalidInputError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [f for f, spec in fields.items()
               if spec.default is MISSING and f not in given and f not in defaulted]
    if missing:
        raise InvalidInputError(f"missing {what} keys: {missing}")


def config_from_dict(data: dict) -> ScenarioConfig:
    data = dict(data)
    _check_keys(data, ScenarioConfig, "config", defaulted=("sca_positions", "qos_targets"))
    hw = data.get("hardware")
    if isinstance(hw, dict):
        _check_keys(hw, HardwareProfile, "hardware")
        data["hardware"] = HardwareProfile(
            rho=tuple(hw["rho"]), eta=tuple(hw["eta"]),
            per_antenna_limit=tuple(hw["per_antenna_limit"]),
            subcarriers=int(hw.get("subcarriers", DEFAULT_SUBCARRIERS)),
        )
    data["sca_positions"] = tuple((float(p[0]), float(p[1])) for p in data.get("sca_positions", ()))
    qos = data.get("qos_targets", 2.0)
    if np.isscalar(qos):
        n_users = int(data["num_users_uniform"]) + int(data["users_per_sca"]) * len(data["sca_positions"])
        qos = (float(qos),) * n_users
    else:
        qos = tuple(float(g) for g in qos)
    data["qos_targets"] = qos
    return ScenarioConfig(**data)


def with_axis_value(config: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    """Copy of the config with one sweep axis replaced."""
    if axis == "n_bs":
        return replace(config, n_bs=int(value))
    if axis == "n_sca":
        return replace(config, n_sca=int(value))
    if axis == "qos":
        return replace(config, qos_targets=(float(value),) * config.num_users)
    raise InvalidInputError(f"unknown sweep axis {axis!r}")
