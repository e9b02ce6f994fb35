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

from .errors import ConfigError, FormatError

BMCH_MAGIC = b"BMCH"
BMCH_VERSION = 1

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
    def n_elements(self) -> int:
        """Total analog element count."""
        return (2 if self.dual_polarized else 1) * self.n_panel


@dataclass(frozen=True)
class ScenarioConfig:
    c_cells: int = 3
    cell_positions: tuple = ()  # (x, y) meters; default built in __post_init__
    cell_height: float = 25.0
    ue_height: float = 1.5
    user_count_range: tuple = (8, 20)
    bandwidth: float = 100e6
    subcarrier_spacing: float = 30e3
    k_subcarriers: int = 16  # sampled resource-block grid
    t_slots: int = 1
    cluster_count: int = 5
    rays_per_cluster: int = 10
    delay_spread: float = 100e-9
    angle_spread_deg: float = 6.0
    tx_power_dBm: float = 30.0  # per-RE radiated power folded into H
    noise_figure_dB: float = 9.0
    n_rx: int = 4
    geometry: ArrayGeometry = field(default_factory=ArrayGeometry)
    pathloss_exponent: float = 3.0
    shadowing_sigma_dB: float = 6.0
    cluster_shadowing_sigma_dB: float = 3.0
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
        if not self.cell_positions:
            d = self.inter_site_distance
            ang = 2.0 * np.pi * np.arange(self.c_cells) / max(self.c_cells, 1)
            r = d / np.sqrt(3.0) if self.c_cells > 1 else 0.0
            pos = tuple((float(r * np.cos(a)), float(r * np.sin(a))) for a in ang)
            object.__setattr__(self, "cell_positions", pos)
        if len(self.cell_positions) != self.c_cells:
            raise ConfigError("cell_positions length must equal c_cells")


@dataclass
class ChannelTensor:
    """Channel H over (cell, user, time, subcarrier, rx antenna, tx element)."""

    values: np.ndarray  # complex64, shape (C, U, T, K, N_R, NT)
    scenario_id: str = ""
    seed: int = 0

    def __post_init__(self):
        if self.values.ndim != 6:
            raise FormatError("channel tensor must be 6-dimensional")
        self.values = np.ascontiguousarray(self.values, dtype=np.complex64)
        if not np.all(np.isfinite(self.values)):
            raise FormatError("channel tensor contains non-finite entries")

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
    Element phase: 2*pi*spacing*(n_x*sin(az)*cos(el) + n_y*sin(el)).
    """
    az = np.asarray(azimuth, dtype=np.float64)[..., None, None]
    el = np.asarray(elevation, dtype=np.float64)[..., None, None]
    nx = np.arange(geometry.n_x)[:, None]
    ny = np.arange(geometry.n_y)[None, :]
    px = nx * np.sin(az) * np.cos(el)
    py = ny * np.sin(el)
    phase = 2.0 * np.pi * geometry.element_spacing * (px + py)
    a = np.exp(1j * phase) / np.sqrt(geometry.n_panel)
    # x-major: element index n = n_x * N_Y + n_y
    return a.reshape(a.shape[:-2] + (geometry.n_panel,))


def ue_array_response(n_rx: int, elevation, spacing: float = 0.5) -> np.ndarray:
    """UE vertical ULA response (elevation-steered), unit norm.

    Broadcasts over an array of elevations: returns shape (..., n_rx).
    """
    n = np.arange(n_rx)
    el = np.asarray(elevation, dtype=np.float64)[..., None]
    return np.exp(1j * 2.0 * np.pi * spacing * n * np.sin(el)) / np.sqrt(n_rx)


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
    """Distance, azimuth and elevation of a user seen from a cell.

    Azimuth is measured in the cell's local frame with boresight pointing at
    the scene center (the origin).
    """
    cx, cy = config.cell_positions[cell]
    dx, dy = pos_xy[0] - cx, pos_xy[1] - cy
    dz = config.ue_height - config.cell_height
    dist = float(np.sqrt(dx * dx + dy * dy + dz * dz))
    boresight = np.arctan2(-cy, -cx) if (cx, cy) != (0.0, 0.0) else 0.0
    az = float(np.arctan2(dy, dx) - boresight)
    az = float(np.arctan2(np.sin(az), np.cos(az)))  # wrap to [-pi, pi]
    el = float(np.arcsin(dz / max(dist, 1e-9)))
    return dist, az, el


def _synthesize_link(config: ScenarioConfig, seed: int, cell: int, user: int,
                     pos_xy: np.ndarray) -> np.ndarray:
    """Channel slab (K, N_R, NT) for one (cell, user) link, complex128."""
    geo = config.geometry
    k_count = config.k_subcarriers
    if config.cluster_count == 0 or config.rays_per_cluster == 0:
        return np.zeros((k_count, config.n_rx, geo.n_elements), dtype=np.complex128)

    rng = _stream(seed, _TAG_LINK, cell, user)
    dist, los_az, los_el = _link_geometry(config, cell, pos_xy)

    # log-distance pathloss, free-space intercept at 1 m, plus shadowing
    fspl_1m = 20.0 * np.log10(geo.carrier_frequency) - 147.55
    pl_db = fspl_1m + 10.0 * config.pathloss_exponent * np.log10(max(dist, 1.0))
    pl_db += rng.normal(scale=config.shadowing_sigma_dB)
    amp = 10.0 ** ((config.tx_power_dBm - pl_db) / 20.0)

    n_cl, n_ray = config.cluster_count, config.rays_per_cluster
    spread = np.deg2rad(config.angle_spread_deg)

    delays = np.sort(rng.exponential(config.delay_spread, size=n_cl))
    cl_power = np.exp(-delays / config.delay_spread)
    cl_power *= 10.0 ** (rng.normal(scale=config.cluster_shadowing_sigma_dB, size=n_cl) / 10.0)
    cl_power /= cl_power.sum()
    cl_az = los_az + rng.laplace(scale=spread, size=n_cl)
    cl_el = los_el + rng.laplace(scale=spread / 2.0, size=n_cl)
    cl_aoa_az = rng.uniform(-np.pi, np.pi, size=n_cl)
    cl_aoa_el = -cl_el + rng.normal(scale=spread, size=n_cl)

    # per-ray draws, cluster by cluster (this order fixes the RNG stream);
    # both polarizations' gains are drawn even for a single-polarized array
    n_pol = 2 if geo.dual_polarized else 1
    ray_az = np.empty((n_cl, n_ray))
    ray_el = np.empty((n_cl, n_ray))
    ray_aoa = np.empty((n_cl, n_ray))
    gains = np.empty((n_cl, n_ray, 2), dtype=np.complex128)
    for c in range(n_cl):
        ray_az[c] = cl_az[c] + rng.normal(scale=spread / 5.0, size=n_ray)
        ray_el[c] = cl_el[c] + rng.normal(scale=spread / 10.0, size=n_ray)
        ray_aoa[c] = cl_aoa_el[c] + rng.normal(scale=spread / 5.0, size=n_ray)
        sigma = np.sqrt(cl_power[c] / (n_pol * n_ray))
        for p in range(2):
            gains[c, :, p] = sigma * (rng.normal(size=n_ray)
                                      + 1j * rng.normal(size=n_ray)) / np.sqrt(2.0)

    # conjugated TX rows (n_cl, n_ray, NT), polarization-major, and RX vectors
    a_tx = np.conj(array_response(geo, ray_az, ray_el))
    tx = (gains[:, :, :n_pol, None] * a_tx[:, :, None, :]).reshape(n_cl, n_ray, -1)
    a_rx = ue_array_response(config.n_rx, ray_aoa)
    # the subcarrier phasor depends only on the cluster, so sum each cluster's
    # rays first: H[k] = sum_c phase[k, c] * (A_rx,c^T TX_c)
    per_cluster = np.swapaxes(a_rx, 1, 2) @ tx  # (n_cl, N_R, NT)

    # baseband subcarrier offsets across the sampled grid
    f_k = (np.arange(k_count) - k_count / 2.0) * (config.bandwidth / max(k_count, 1))
    phase = amp * np.exp(-2j * np.pi * f_k[:, None] * delays)  # (K, n_cl)
    slab = phase @ per_cluster.reshape(n_cl, -1)
    return slab.reshape(k_count, config.n_rx, geo.n_elements)


def generate_channels(config: ScenarioConfig, seed: int,
                      n_users: int | None = None) -> ChannelTensor:
    """Synthesize the full (C, U, T, K, N_R, NT) channel tensor."""
    if n_users is None:
        n_users = draw_user_count(config, seed)
    pos = user_positions(config, seed, n_users)
    geo = config.geometry
    shape = (config.c_cells, n_users, config.t_slots, config.k_subcarriers,
             config.n_rx, geo.n_elements)
    h = np.empty(shape, dtype=np.complex64)
    for c in range(config.c_cells):
        for u in range(n_users):
            slab = _synthesize_link(config, seed, c, u, pos[u])
            # block-constant over the period: one cast, broadcast across T
            h[c, u] = slab.astype(np.complex64)
    return ChannelTensor(values=h, scenario_id=f"scene{config.scene_seed}", seed=seed)


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
    return ChannelTensor(values=values)
