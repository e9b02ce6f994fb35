"""Multi-cell MU-MIMO OFDM channel generation and channel-dump I/O.

Channels are synthesized with a clustered multipath model (delay-line style):
per (cell, user) link a set of clusters is drawn around the line-of-sight
geometry, each cluster carrying several rays with independent complex gains
per polarization.  Pathloss follows a log-distance law with per-link and
per-cluster shadowing.  All randomness comes from counter-based Philox
streams keyed on (seed, purpose, indices), so generation is deterministic
and order-independent.

Linear powers are in milliwatts throughout; dBm appears only at the edges.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, FormatError

BMCH_MAGIC = b"BMCH"
BMCH_VERSION = 1

# Every seed, a command's and a scene's, lies in [0, SEED_LIMIT).  A drop's
# stream seed, seed * 1000003 + drop index, then fits the uint64 word of the
# Philox key for any drop index below 2**59.
SEED_LIMIT = 2 ** 44

# Every user count, a fixed one or either end of a drawn one's range, is at
# most MAX_USERS: a BMCH header holds each dimension in a u32 word.
MAX_USERS = 2 ** 32 - 1

# Model constants of the channel, the same for every scene
CELL_HEIGHT = 25.0  # m
UE_HEIGHT = 1.5  # m
UE_ELEMENT_SPACING = 0.5  # wavelengths, of the UE's vertical ULA
BANDWIDTH = 100e6  # Hz, spanned by the sampled subcarrier grid
DELAY_SPREAD = 100e-9  # s, mean of the exponential cluster delays
PATHLOSS_EXPONENT = 3.0
SHADOWING_SIGMA_DB = 6.0  # per link
CLUSTER_SHADOWING_SIGMA_DB = 3.0  # per cluster

# stream tags for Philox keying
_TAG_USER = 1
_TAG_LINK = 2
_TAG_SCENE = 3
_TAG_COUNT = 4


@dataclass(frozen=True)
class ArrayGeometry:
    """Planar transmit array; dual-polarized elements are co-located."""

    n_x: int = 8
    n_y: int = 8
    dual_polarized: bool = True
    element_spacing: float = 0.5  # wavelengths
    carrier_frequency: float = 10e9

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise ConfigError("array dimensions must be >= 1")

    @property
    def n_panel(self) -> int:
        """Elements per polarization panel."""
        return self.n_x * self.n_y

    @property
    def n_pol(self) -> int:
        """Polarization panels: 2 dual-polarized, else 1."""
        return 2 if self.dual_polarized else 1

    @property
    def n_elements(self) -> int:
        """Total analog element count."""
        return self.n_pol * self.n_panel


@dataclass(frozen=True)
class ScenarioConfig:
    c_cells: int = 3
    user_count_range: tuple = (8, 20)
    subcarrier_spacing: float = 30e3
    k_subcarriers: int = 16  # sampled resource-block grid
    t_slots: int = 1
    cluster_count: int = 5
    rays_per_cluster: int = 10
    angle_spread_deg: float = 6.0
    tx_power_dBm: float = 30.0  # per-RE radiated power folded into H
    noise_figure_dB: float = 9.0
    n_rx: int = 4
    geometry: ArrayGeometry = field(default_factory=ArrayGeometry)
    # site-specific user distribution: hotspot mixture, fixed per scene seed
    scene_seed: int = 7
    n_hotspots: int = 6
    hotspot_fraction: float = 0.7
    hotspot_sigma: float = 25.0
    inter_site_distance: float = 250.0

    def __post_init__(self):
        if self.c_cells < 1:
            raise ConfigError("need at least one cell")
        if self.user_count_range[0] > self.user_count_range[1] or self.user_count_range[0] < 1:
            raise ConfigError("bad user_count_range")

    @property
    def cell_positions(self) -> list:
        """(x, y) of each cell in meters: the origin, or a ring of radius ISD/sqrt(3)."""
        ang = 2.0 * np.pi * np.arange(self.c_cells) / self.c_cells
        r = self.inter_site_distance / np.sqrt(3.0) if self.c_cells > 1 else 0.0
        return [(float(r * np.cos(a)), float(r * np.sin(a))) for a in ang]


@dataclass
class ChannelTensor:
    """Channel H over (cell, user, time, subcarrier, rx antenna, tx element).

    ``generate_channels`` and ``import_channels`` check that it is finite.
    """

    values: np.ndarray  # complex64, shape (C, U, T, K, N_R, NT)

    def __post_init__(self):
        if self.values.ndim != 6:
            raise FormatError("channel tensor must be 6-dimensional")
        self.values = np.ascontiguousarray(self.values, dtype=np.complex64)

    @property
    def shape(self):
        return self.values.shape


def _stream(seed: int, tag: int, *ids: int) -> np.random.Generator:
    """Counter-based RNG stream keyed on (seed, tag, ids)."""
    fold = np.uint64(tag)
    for i in ids:
        fold = np.uint64(fold) * np.uint64(1_000_003) + np.uint64(i + 1)
    key = np.array([np.uint64(seed), fold], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def array_response(geometry: ArrayGeometry, azimuth, elevation) -> np.ndarray:
    """Unit-norm steering vectors of one polarization panel.

    Panels are co-located, so both polarizations share this phase profile.
    Broadcasts over arrays of angles: returns shape (..., n_x*n_y), where
    ``...`` is the broadcast shape of ``azimuth`` and ``elevation``.
    Element phase: 2*pi*spacing*(n_x*sin(az)*cos(el) + n_y*sin(el)), so the
    response is the outer product of an n_x and an n_y phase vector.
    """
    az = np.asarray(azimuth, dtype=np.float64)[..., None]
    el = np.asarray(elevation, dtype=np.float64)[..., None]
    k = 2.0 * np.pi * geometry.element_spacing
    ax = np.exp(1j * k * np.arange(geometry.n_x) * (np.sin(az) * np.cos(el)))
    ay = np.exp(1j * k * np.arange(geometry.n_y) * np.sin(el)) / np.sqrt(geometry.n_panel)
    # x-major: element index n = n_x * N_Y + n_y
    a = ax[..., :, None] * ay[..., None, :]
    return a.reshape(a.shape[:-2] + (geometry.n_panel,))


def ue_array_response(n_rx: int, elevation) -> np.ndarray:
    """UE vertical ULA response (elevation-steered), unit norm.

    Broadcasts over an array of elevations: returns shape (..., n_rx).
    """
    n = np.arange(n_rx)
    el = np.asarray(elevation, dtype=np.float64)[..., None]
    return np.exp(1j * 2.0 * np.pi * UE_ELEMENT_SPACING * n * np.sin(el)) / np.sqrt(n_rx)


def noise_variance(config: ScenarioConfig) -> float:
    """Thermal noise power per resource element, linear mW."""
    dbm = -174.0 + 10.0 * np.log10(config.subcarrier_spacing) + config.noise_figure_dB
    return float(10.0 ** (dbm / 10.0))


def _scene_hotspots(config: ScenarioConfig) -> np.ndarray:
    rng = _stream(config.scene_seed, _TAG_SCENE)
    r = config.inter_site_distance
    return rng.uniform(-r, r, size=(config.n_hotspots, 2))


def user_positions(config: ScenarioConfig, seed: int, n_users: int) -> np.ndarray:
    """Drop users: hotspot mixture plus a uniform background."""
    hotspots = _scene_hotspots(config)
    out = np.empty((n_users, 2))
    r = config.inter_site_distance
    for u in range(n_users):
        rng = _stream(seed, _TAG_USER, u)
        if rng.uniform() < config.hotspot_fraction and config.n_hotspots > 0:
            center = hotspots[rng.integers(config.n_hotspots)]
            out[u] = center + rng.normal(scale=config.hotspot_sigma, size=2)
        else:
            out[u] = rng.uniform(-r, r, size=2)
    return out


def draw_user_count(config: ScenarioConfig, seed: int) -> int:
    lo, hi = config.user_count_range
    return int(_stream(seed, _TAG_COUNT).integers(lo, hi + 1))


def _link_geometry(config: ScenarioConfig, cell: int, pos_xy: np.ndarray):
    """Distance, azimuth and elevation of users seen from a cell.

    pos_xy: (..., 2) user positions; returns three arrays of shape (...).
    Azimuth is measured in the cell's local frame with boresight pointing at
    the scene center (the origin).
    """
    cx, cy = config.cell_positions[cell]
    dx, dy = pos_xy[..., 0] - cx, pos_xy[..., 1] - cy
    dz = UE_HEIGHT - CELL_HEIGHT
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    boresight = np.arctan2(-cy, -cx) if (cx, cy) != (0.0, 0.0) else 0.0
    az = np.arctan2(dy, dx) - boresight
    az = np.arctan2(np.sin(az), np.cos(az))  # wrap to [-pi, pi]
    el = np.arcsin(dz / np.maximum(dist, 1e-9))
    return dist, az, el


def _link_draws(config: ScenarioConfig, seed: int, cell: int, n_users: int):
    """Every random draw of one cell's links, each link from its own stream.

    Per link, in stream order: the shadowing, then per cluster its delay,
    shadowing, TX azimuth and elevation offsets, an unused AoA azimuth and
    its RX elevation offset, then per cluster the 7 * n_ray standard normals
    of its rays: TX azimuth, TX elevation and RX elevation offsets, then the
    real and imaginary gain parts of each polarization.  Both polarizations'
    gains are drawn even for a single-polarized array.  Returns the
    shadowing (U,), the cluster draws (U, 5, n_cl) without the AoA azimuth,
    and the ray normals (U, n_cl, 7, n_ray).
    """
    n_cl, n_ray = config.cluster_count, config.rays_per_cluster
    spread = np.deg2rad(config.angle_spread_deg)
    shadow = np.empty(n_users)
    clusters = np.empty((n_users, 5, n_cl))
    rays = np.empty((n_users, n_cl, 7, n_ray))
    for u in range(n_users):
        rng = _stream(seed, _TAG_LINK, cell, u)
        shadow[u] = rng.normal(scale=SHADOWING_SIGMA_DB)
        clusters[u, 0] = rng.exponential(DELAY_SPREAD, size=n_cl)
        clusters[u, 1] = rng.normal(scale=CLUSTER_SHADOWING_SIGMA_DB, size=n_cl)
        clusters[u, 2] = rng.laplace(scale=spread, size=n_cl)
        clusters[u, 3] = rng.laplace(scale=spread / 2.0, size=n_cl)
        rng.uniform(-np.pi, np.pi, size=n_cl)
        clusters[u, 4] = rng.normal(scale=spread, size=n_cl)
        rng.standard_normal(out=rays[u])
    return shadow, clusters, rays


def _synthesize_cell(config: ScenarioConfig, seed: int, cell: int,
                     pos: np.ndarray) -> np.ndarray:
    """Channel slabs (U, K, N_R, NT) of one cell's links, complex128."""
    geo = config.geometry
    n_users, k_count = len(pos), config.k_subcarriers
    n_cl, n_ray = config.cluster_count, config.rays_per_cluster
    n_pol = geo.n_pol
    spread = np.deg2rad(config.angle_spread_deg)
    shadow, clusters, rays = _link_draws(config, seed, cell, n_users)
    dist, los_az, los_el = _link_geometry(config, cell, pos)

    # log-distance pathloss, free-space intercept at 1 m, plus shadowing
    fspl_1m = 20.0 * np.log10(geo.carrier_frequency) - 147.55
    pl_db = fspl_1m + 10.0 * PATHLOSS_EXPONENT * np.log10(np.maximum(dist, 1.0))
    pl_db += shadow
    amp = 10.0 ** ((config.tx_power_dBm - pl_db) / 20.0)  # (U,)

    delays = np.sort(clusters[:, 0], axis=-1)  # (U, n_cl)
    cl_power = np.exp(-delays / DELAY_SPREAD)
    cl_power *= 10.0 ** (clusters[:, 1] / 10.0)
    cl_power /= cl_power.sum(axis=-1, keepdims=True)
    cl_az = los_az[:, None] + clusters[:, 2]
    cl_el = los_el[:, None] + clusters[:, 3]
    cl_aoa_el = -cl_el + clusters[:, 4]

    # per-ray angles (U, n_cl, n_ray) and gains (U, n_cl, n_pol, n_ray)
    ray_az = cl_az[..., None] + spread / 5.0 * rays[:, :, 0]
    ray_el = cl_el[..., None] + spread / 10.0 * rays[:, :, 1]
    ray_aoa = cl_aoa_el[..., None] + spread / 5.0 * rays[:, :, 2]
    sigma = np.sqrt(cl_power / (n_pol * n_ray))[..., None, None]
    gains = sigma * (rays[:, :, 3:3 + 2 * n_pol:2]
                     + 1j * rays[:, :, 4:4 + 2 * n_pol:2]) / np.sqrt(2.0)

    # the subcarrier phasor depends only on the cluster, so sum each cluster's
    # rays first: per polarization, (gain-weighted RX vectors)^T @ conj(TX)
    a_rx = ue_array_response(config.n_rx, ray_aoa)  # (U, n_cl, n_ray, N_R)
    weights = gains[:, :, None, :, :] * np.swapaxes(a_rx, -1, -2)[:, :, :, None, :]
    a_tx = np.conj(array_response(geo, ray_az, ray_el))  # (U, n_cl, n_ray, n_panel)
    per_cluster = (weights @ a_tx[:, :, None]).reshape(
        n_users, n_cl, config.n_rx * geo.n_elements)

    # baseband subcarrier offsets across the sampled grid
    f_k = (np.arange(k_count) - k_count / 2.0) * (BANDWIDTH / max(k_count, 1))
    phase = amp[:, None, None] * np.exp(-2j * np.pi * f_k[:, None] * delays[:, None, :])
    slab = phase @ per_cluster  # (U, K, N_R * NT), polarization-major TX
    return slab.reshape(n_users, k_count, config.n_rx, geo.n_elements)


def generate_channels(config: ScenarioConfig, seed: int,
                      n_users: int | None = None) -> ChannelTensor:
    """Synthesize the full (C, U, T, K, N_R, NT) channel tensor.

    Links draw from their own streams; the arithmetic runs one cell at a time
    over all of that cell's links, which bounds the working set to one cell.
    A channel that overflows complex64 (a huge ``tx_power_dBm``, say) is a
    numerical failure of the drop, ``DomainError``.
    """
    if n_users is None:
        n_users = draw_user_count(config, seed)
    pos = user_positions(config, seed, n_users)
    geo = config.geometry
    shape = (config.c_cells, n_users, config.t_slots, config.k_subcarriers,
             config.n_rx, geo.n_elements)
    h = np.zeros(shape, dtype=np.complex64)
    if config.cluster_count and config.rays_per_cluster:
        for c in range(config.c_cells):
            # block-constant over the period: one cast, broadcast across T
            h[c] = _synthesize_cell(config, seed, c, pos)[:, None]
    if not np.isfinite(h).all():
        raise DomainError("synthesized channel is not finite: an amplitude overflowed")
    return ChannelTensor(values=h)


# ----------------------------- BMCH dump I/O -----------------------------

def export_channels(path, tensor: ChannelTensor) -> None:
    """Write the BMCH binary dump: magic, version, six u32 dims, complex64."""
    dims = tensor.values.shape
    with open(path, "wb") as f:
        f.write(BMCH_MAGIC)
        f.write(struct.pack("<I", BMCH_VERSION))
        f.write(struct.pack("<6I", *dims))
        interleaved = np.empty(tensor.values.size * 2, dtype="<f4")
        flat = tensor.values.reshape(-1)
        interleaved[0::2] = flat.real
        interleaved[1::2] = flat.imag
        f.write(interleaved.tobytes())


def import_channels(path) -> ChannelTensor:
    """Read a BMCH dump back into a ChannelTensor."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != BMCH_MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        head = f.read(4)
        if len(head) < 4:
            raise IOError("truncated header")
        (version,) = struct.unpack("<I", head)
        if version != BMCH_VERSION:
            raise FormatError(f"unsupported version {version}")
        raw = f.read(24)
        if len(raw) < 24:
            raise IOError("truncated header")
        dims = struct.unpack("<6I", raw)
        count = int(np.prod([int(d) for d in dims], dtype=np.int64))
        if count < 0 or count > 2**33:
            raise FormatError(f"dimension overflow: {dims}")
        payload = f.read(count * 8)
        if len(payload) != count * 8:
            raise IOError("truncated payload")
    parts = np.frombuffer(payload, dtype="<f4")
    values = (parts[0::2] + 1j * parts[1::2]).astype(np.complex64).reshape(dims)
    if not np.isfinite(values).all():
        raise FormatError("channel file contains non-finite entries")
    return ChannelTensor(values=values)
