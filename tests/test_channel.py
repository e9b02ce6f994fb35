"""Channel synthesis, array responses, noise figures, BMCH dump I/O."""
import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamweaver import channel as ch
from beamweaver.errors import ConfigError, DomainError, FormatError


def _tiny_config(**over):
    base = dict(c_cells=1, k_subcarriers=2, n_rx=2, cluster_count=2,
                rays_per_cluster=3, user_count_range=(1, 2),
                geometry=ch.ArrayGeometry(n_x=2, n_y=2, dual_polarized=False))
    base.update(over)
    return ch.ScenarioConfig(**base)


# --------------------------- array responses -----------------------------

def test_array_response_broadside():
    geo = ch.ArrayGeometry(n_x=2, n_y=1, dual_polarized=False)
    np.testing.assert_allclose(ch.array_response(geo, 0.0, 0.0),
                               np.array([1.0, 1.0]) / np.sqrt(2.0))


def test_array_response_half_sine_phases():
    geo = ch.ArrayGeometry(n_x=4, n_y=1, dual_polarized=False, element_spacing=0.5)
    a = ch.array_response(geo, np.arcsin(0.5), 0.0)
    want = 0.5 * np.exp(1j * np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2]))
    np.testing.assert_allclose(a, want, atol=1e-12)


def test_array_response_unit_norm():
    geo = ch.ArrayGeometry(n_x=3, n_y=5, dual_polarized=False)
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = ch.array_response(geo, rng.uniform(-np.pi, np.pi), rng.uniform(-1.0, 1.0))
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_ue_array_response_unit_norm():
    assert abs(np.linalg.norm(ch.ue_array_response(4, 0.3)) - 1.0) < 1e-12


def test_array_responses_broadcast_like_stacked_scalar_calls():
    geo = ch.ArrayGeometry(n_x=3, n_y=2, dual_polarized=True)
    rng = np.random.default_rng(1)
    az = rng.uniform(-np.pi, np.pi, size=(4, 5))
    el = rng.uniform(-1.0, 1.0, size=(4, 5))
    got = ch.array_response(geo, az, el)
    want = np.stack([ch.array_response(geo, a, e)
                     for a, e in zip(az.ravel(), el.ravel())]).reshape(4, 5, 6)
    assert got.shape == (4, 5, geo.n_panel)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    # a scalar elevation broadcasts against a row of azimuths
    row = np.stack([ch.array_response(geo, a, el[0, 0]) for a in az[0]])
    np.testing.assert_allclose(ch.array_response(geo, az[0], el[0, 0]), row,
                               rtol=0, atol=1e-15)
    got_ue = ch.ue_array_response(3, el)
    want_ue = np.stack([ch.ue_array_response(3, e) for e in el.ravel()]).reshape(4, 5, 3)
    assert got_ue.shape == (4, 5, 3)
    np.testing.assert_allclose(got_ue, want_ue, rtol=0, atol=1e-15)


def test_geometry_validation():
    with pytest.raises(ConfigError):
        ch.ArrayGeometry(n_x=0, n_y=1)
    geo = ch.ArrayGeometry(n_x=4, n_y=2, dual_polarized=True)
    assert geo.n_elements == 16 and geo.n_panel == 8 and geo.n_pol == 2
    geo = ch.ArrayGeometry(n_x=4, n_y=2, dual_polarized=False)
    assert geo.n_elements == 8 and geo.n_panel == 8 and geo.n_pol == 1


# ---------------------------- noise variance -----------------------------

def test_noise_variance_reference_point():
    cfg = _tiny_config(subcarrier_spacing=30e3, noise_figure_dB=9.0)
    dbm = 10.0 * np.log10(ch.noise_variance(cfg))
    assert abs(dbm - (-174.0 + 10.0 * np.log10(30e3) + 9.0)) < 1e-9
    assert abs(dbm - (-120.2)) < 0.05


def test_noise_variance_thermal_floor():
    cfg = _tiny_config(subcarrier_spacing=1.0, noise_figure_dB=0.0)
    assert abs(10.0 * np.log10(ch.noise_variance(cfg)) + 174.0) < 1e-9


def test_noise_variance_doubling_spacing():
    a = ch.noise_variance(_tiny_config(subcarrier_spacing=15e3))
    b = ch.noise_variance(_tiny_config(subcarrier_spacing=30e3))
    assert abs(10.0 * np.log10(b / a) - 10.0 * np.log10(2.0)) < 1e-9


# --------------------------- channel synthesis ---------------------------

def test_single_ray_channel_is_rank_one():
    cfg = _tiny_config(cluster_count=1, rays_per_cluster=1, k_subcarriers=1,
                       t_slots=1, n_rx=3)
    h = ch.generate_channels(cfg, seed=4, n_users=1).values[0, 0, 0, 0]
    sv = np.linalg.svd(h.astype(np.complex128), compute_uv=False)
    assert sv[0] > 0 and sv[1] < 1e-6 * sv[0]


def test_zero_clusters_gives_zero_tensor():
    cfg = _tiny_config(cluster_count=0)
    h = ch.generate_channels(cfg, seed=1, n_users=2).values
    assert not h.any()


def test_zero_users_gives_empty_tensor():
    h = ch.generate_channels(_tiny_config(c_cells=2), seed=1, n_users=0).values
    assert h.shape == (2, 0, 1, 2, 2, 4)


def test_same_seed_bitwise_identical():
    cfg = _tiny_config()
    a = ch.generate_channels(cfg, seed=42).values
    b = ch.generate_channels(cfg, seed=42).values
    assert np.array_equal(a, b)


def test_different_seed_differs():
    cfg = _tiny_config()
    a = ch.generate_channels(cfg, seed=1, n_users=2).values
    b = ch.generate_channels(cfg, seed=2, n_users=2).values
    assert not np.array_equal(a, b)


def test_energy_linearity_in_tx_power():
    base = _tiny_config()
    louder = _tiny_config(tx_power_dBm=base.tx_power_dBm + 20.0)
    a = ch.generate_channels(base, seed=3, n_users=2).values.astype(np.complex128)
    b = ch.generate_channels(louder, seed=3, n_users=2).values.astype(np.complex128)
    np.testing.assert_allclose(b, 10.0 * a, rtol=1e-5)


def test_zero_delay_is_frequency_flat(monkeypatch):
    monkeypatch.setattr(ch, "DELAY_SPREAD", 1e-30)
    cfg = _tiny_config(k_subcarriers=4)
    h = ch.generate_channels(cfg, seed=5, n_users=1).values[0, 0, 0]
    for k in range(1, 4):
        np.testing.assert_allclose(h[k], h[0], rtol=1e-5, atol=1e-12)


def test_t_slots_repeat_the_single_slot_tensor():
    one = ch.generate_channels(_tiny_config(t_slots=1), seed=6, n_users=2).values
    three = ch.generate_channels(_tiny_config(t_slots=3), seed=6, n_users=2).values
    assert three.shape[2] == 3
    for t in range(3):
        assert np.array_equal(three[:, :, t], one[:, :, 0])


@pytest.mark.parametrize("over", [{"inter_site_distance": 500.0}, {"c_cells": 2},
                                  {"c_cells": 1}], ids=["isd-500", "cells-2", "cells-1"])
def test_replaced_config_synthesizes_as_a_fresh_one(over):
    # the cells' ring follows c_cells and inter_site_distance, so a config
    # from dataclasses.replace gives the channels of one built anew
    replaced, fresh = dataclasses.replace(ch.ScenarioConfig(), **over), ch.ScenarioConfig(**over)
    assert replaced.cell_positions == fresh.cell_positions
    assert np.array_equal(ch.generate_channels(replaced, 3, n_users=2).values,
                          ch.generate_channels(fresh, 3, n_users=2).values)
    radius = over.get("inter_site_distance", 250.0) / np.sqrt(3.0)
    assert np.hypot(*replaced.cell_positions[-1]) == pytest.approx(
        radius if replaced.c_cells > 1 else 0.0)


# Frozen reference: the per-ray synthesis loop and ray accumulation that the
# vectorized per-link synthesis replaced. Keep it as written; it is the oracle
# for the batched per-cell formulation, which sums rays per cluster before
# applying the subcarrier phasor and so rounds differently.

def _reference_accumulate_rays(phase, a_rx, tx_row, out):
    n_rays = phase.shape[0]
    for r in range(n_rays):
        c2 = phase[r][:, None] * a_rx[r][None, :]  # (K, N_R)
        out += c2[:, :, None] * tx_row[r][None, None, :]
    return out


def _reference_synthesize_link(config, seed, cell, user, pos_xy):
    geo = config.geometry
    k_count = config.k_subcarriers
    slab = np.zeros((k_count, config.n_rx, geo.n_elements), dtype=np.complex128)
    if config.cluster_count == 0 or config.rays_per_cluster == 0:
        return slab

    rng = ch._stream(seed, ch._TAG_LINK, cell, user)
    dist, los_az, los_el = ch._link_geometry(config, cell, pos_xy)

    fspl_1m = 20.0 * np.log10(geo.carrier_frequency) - 147.55
    pl_db = fspl_1m + 10.0 * ch.PATHLOSS_EXPONENT * np.log10(max(dist, 1.0))
    pl_db += rng.normal(scale=ch.SHADOWING_SIGMA_DB)
    amp = 10.0 ** ((config.tx_power_dBm - pl_db) / 20.0)

    n_cl, n_ray = config.cluster_count, config.rays_per_cluster
    spread = np.deg2rad(config.angle_spread_deg)

    delays = np.sort(rng.exponential(ch.DELAY_SPREAD, size=n_cl))
    cl_power = np.exp(-delays / ch.DELAY_SPREAD)
    cl_power *= 10.0 ** (rng.normal(scale=ch.CLUSTER_SHADOWING_SIGMA_DB, size=n_cl) / 10.0)
    cl_power /= cl_power.sum()
    cl_az = los_az + rng.laplace(scale=spread, size=n_cl)
    cl_el = los_el + rng.laplace(scale=spread / 2.0, size=n_cl)
    rng.uniform(-np.pi, np.pi, size=n_cl)  # cluster AoA azimuths (unused)
    cl_aoa_el = -cl_el + rng.normal(scale=spread, size=n_cl)

    f_k = (np.arange(k_count) - k_count / 2.0) * (ch.BANDWIDTH / max(k_count, 1))

    n_rays = n_cl * n_ray
    phase = np.empty((n_rays, k_count), dtype=np.complex128)
    a_rx_all = np.empty((n_rays, config.n_rx), dtype=np.complex128)
    tx_rows = np.empty((n_rays, geo.n_elements), dtype=np.complex128)

    idx = 0
    for c in range(n_cl):
        ray_az = cl_az[c] + rng.normal(scale=spread / 5.0, size=n_ray)
        ray_el = cl_el[c] + rng.normal(scale=spread / 10.0, size=n_ray)
        ray_aoa = cl_aoa_el[c] + rng.normal(scale=spread / 5.0, size=n_ray)
        sigma = np.sqrt(cl_power[c] / (2.0 * n_ray)) if geo.dual_polarized \
            else np.sqrt(cl_power[c] / n_ray)
        g0 = sigma * (rng.normal(size=n_ray) + 1j * rng.normal(size=n_ray)) / np.sqrt(2.0)
        g1 = sigma * (rng.normal(size=n_ray) + 1j * rng.normal(size=n_ray)) / np.sqrt(2.0)
        for j in range(n_ray):
            a_tx = np.conj(ch.array_response(geo, ray_az[j], ray_el[j]))
            if geo.dual_polarized:
                tx_rows[idx] = np.concatenate([g0[j] * a_tx, g1[j] * a_tx])
            else:
                tx_rows[idx] = g0[j] * a_tx
            a_rx_all[idx] = ch.ue_array_response(config.n_rx, ray_aoa[j])
            phase[idx] = amp * np.exp(-2j * np.pi * f_k * delays[c])
            idx += 1

    _reference_accumulate_rays(phase, a_rx_all, tx_rows, slab)
    return slab


_DESK = dict(c_cells=3, k_subcarriers=16, n_rx=2, user_count_range=(4, 8),
             n_hotspots=3, hotspot_fraction=1.0, hotspot_sigma=5.0,
             angle_spread_deg=3.0, cluster_count=3)


@pytest.mark.parametrize("over", [
    {},
    _DESK,
    {"geometry": ch.ArrayGeometry(dual_polarized=False)},
    {"n_rx": 1},
    {"k_subcarriers": 1},
    {"rays_per_cluster": 1},
    {"angle_spread_deg": 0.0},
], ids=["default", "desk", "single-pol", "n_rx-1", "k-1", "rays-1", "spread-0"])
def test_synthesize_link_matches_frozen_per_ray_reference(over):
    cfg = ch.ScenarioConfig(**over)
    for seed in (0, 11):
        pos = ch.user_positions(cfg, seed, 3)
        for cell in range(cfg.c_cells):
            got = ch._synthesize_cell(cfg, seed, cell, pos)
            assert got.dtype == np.complex128
            for user in range(3):
                want = _reference_synthesize_link(cfg, seed, cell, user, pos[user])
                assert got[user].shape == want.shape
                np.testing.assert_allclose(got[user], want, rtol=1e-12, atol=0)
    # the stored tensor is that slab cast once and repeated over T
    tensor = ch.generate_channels(cfg, 0, n_users=3).values
    slabs = np.stack([ch._synthesize_cell(cfg, 0, c, ch.user_positions(cfg, 0, 3))
                      for c in range(cfg.c_cells)])
    assert np.array_equal(tensor[:, :, 0], slabs.astype(np.complex64))


# Frozen reference: one link's draws as the per-link synthesis made them, one
# sequential rng.normal(scale=...) call per quantity and cluster.  The batched
# synthesis draws each cluster's ray normals as one block and scales them
# itself; the two must agree bit for bit.

def _reference_link_draws(config, seed, cell, user):
    rng = ch._stream(seed, ch._TAG_LINK, cell, user)
    n_cl, n_ray = config.cluster_count, config.rays_per_cluster
    spread = np.deg2rad(config.angle_spread_deg)
    shadow = rng.normal(scale=ch.SHADOWING_SIGMA_DB)
    delays = np.sort(rng.exponential(ch.DELAY_SPREAD, size=n_cl))
    cl_shadow = rng.normal(scale=ch.CLUSTER_SHADOWING_SIGMA_DB, size=n_cl)
    cl_az = rng.laplace(scale=spread, size=n_cl)
    cl_el = rng.laplace(scale=spread / 2.0, size=n_cl)
    rng.uniform(-np.pi, np.pi, size=n_cl)
    cl_aoa_el = rng.normal(scale=spread, size=n_cl)
    rays = np.empty((n_cl, 7, n_ray))
    for c in range(n_cl):
        rays[c, 0] = rng.normal(scale=spread / 5.0, size=n_ray)
        rays[c, 1] = rng.normal(scale=spread / 10.0, size=n_ray)
        rays[c, 2] = rng.normal(scale=spread / 5.0, size=n_ray)
        for p in range(2):
            rays[c, 3 + 2 * p] = rng.normal(size=n_ray)
            rays[c, 4 + 2 * p] = rng.normal(size=n_ray)
    return shadow, np.stack([delays, cl_shadow, cl_az, cl_el, cl_aoa_el]), rays


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@pytest.mark.parametrize("over", [
    {},
    {"rays_per_cluster": 1},
    {"geometry": ch.ArrayGeometry(dual_polarized=False)},
], ids=["default", "rays-1", "single-pol"])
def test_block_draws_match_frozen_sequential_draws(over):
    cfg = ch.ScenarioConfig(**over)
    spread = np.deg2rad(cfg.angle_spread_deg)
    scales = np.array([spread / 5.0, spread / 10.0, spread / 5.0, 1, 1, 1, 1])
    for seed in (0, 11):
        for cell in range(cfg.c_cells):
            shadow, clusters, rays = ch._link_draws(cfg, seed, cell, 4)
            for user in range(4):
                w_shadow, w_clusters, w_rays = _reference_link_draws(cfg, seed, cell, user)
                assert _bits(shadow[user]) == _bits(w_shadow)
                got_clusters = clusters[user].copy()
                got_clusters[0] = np.sort(got_clusters[0])
                assert _bits(got_clusters) == _bits(w_clusters)
                # scaled as the synthesis scales them; +0.0 folds -0.0 into 0.0
                scaled = scales[:, None] * rays[user]
                assert _bits(scaled + 0.0) == _bits(w_rays + 0.0)


@pytest.mark.parametrize("over", [{"cluster_count": 0}, {"rays_per_cluster": 0}],
                         ids=["clusters-0", "rays-0"])
def test_zero_path_draws_nothing(over, monkeypatch):
    # the per-link synthesis returned zeros before opening a link stream
    tags = []
    stream = ch._stream

    def spy(seed, tag, *ids):
        tags.append(tag)
        return stream(seed, tag, *ids)

    monkeypatch.setattr(ch, "_stream", spy)
    h = ch.generate_channels(ch.ScenarioConfig(**over), seed=3, n_users=4).values
    assert h.shape[:2] == (3, 4) and not h.any()
    assert ch._TAG_LINK not in tags


def test_generate_channels_peak_memory_is_bounded():
    # the working set is one cell's links, not the whole drop's
    cfg = ch.ScenarioConfig()
    ch.generate_channels(cfg, seed=5, n_users=2)
    tracemalloc.start()
    try:
        tensor = ch.generate_channels(cfg, seed=5, n_users=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * tensor.values.nbytes


def test_user_count_respects_range():
    cfg = _tiny_config(user_count_range=(8, 20))
    counts = [ch.draw_user_count(cfg, s) for s in range(300)]
    assert min(counts) >= 8 and max(counts) <= 20
    assert len(set(counts)) > 5  # actually varies


@settings(max_examples=15, deadline=None)
@given(c=st.integers(1, 3), nx=st.integers(1, 3), ny=st.integers(1, 2),
       k=st.integers(1, 3), nr=st.integers(1, 3), dual=st.booleans())
def test_generated_tensor_shape_property(c, nx, ny, k, nr, dual):
    cfg = ch.ScenarioConfig(
        c_cells=c, k_subcarriers=k, n_rx=nr, cluster_count=2, rays_per_cluster=2,
        user_count_range=(1, 3),
        geometry=ch.ArrayGeometry(n_x=nx, n_y=ny, dual_polarized=dual))
    tensor = ch.generate_channels(cfg, seed=9, n_users=2)
    nt = (2 if dual else 1) * nx * ny
    assert tensor.values.shape == (c, 2, 1, k, nr, nt)
    assert np.all(np.isfinite(tensor.values))


# ------------------------------- BMCH I/O --------------------------------

def test_bmch_round_trip_bitwise(tmp_path):
    cfg = _tiny_config()
    tensor = ch.generate_channels(cfg, seed=7, n_users=2)
    path = tmp_path / "dump.bmch"
    ch.export_channels(path, tensor)
    back = ch.import_channels(path)
    assert np.array_equal(tensor.values, back.values)


def test_bmch_tiny_file_layout(tmp_path):
    values = np.array([1.0 - 1.0j], np.complex64).reshape(1, 1, 1, 1, 1, 1)
    path = tmp_path / "tiny.bmch"
    ch.export_channels(path, ch.ChannelTensor(values=values))
    assert path.stat().st_size == 32 + 8  # 32-byte header + one complex64
    back = ch.import_channels(path)
    np.testing.assert_allclose(back.values.reshape(()), 1.0 - 1.0j)


def test_bmch_export_deterministic(tmp_path):
    cfg = _tiny_config()
    tensor = ch.generate_channels(cfg, seed=7, n_users=2)
    p1, p2 = tmp_path / "a.bmch", tmp_path / "b.bmch"
    ch.export_channels(p1, tensor)
    ch.export_channels(p2, tensor)
    assert hashlib.sha256(p1.read_bytes()).digest() == hashlib.sha256(p2.read_bytes()).digest()


def test_bmch_non_finite_entry_is_a_format_error(tmp_path):
    values = np.array([1.0, np.nan], np.complex64).reshape(1, 1, 1, 1, 1, 2)
    path = tmp_path / "nan.bmch"
    ch.export_channels(path, ch.ChannelTensor(values=values))
    with pytest.raises(FormatError, match="non-finite"):
        ch.import_channels(path)


def test_channel_overflow_is_a_domain_error():
    # the synthesized channel overflows complex64: a numerical failure of the
    # drop, which no config range can rule out (shadowing is unbounded)
    cfg = _tiny_config(tx_power_dBm=3000.0)
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="not finite"):
        ch.generate_channels(cfg, seed=7, n_users=2)


def test_bmch_bad_magic(tmp_path):
    path = tmp_path / "bad.bmch"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(FormatError):
        ch.import_channels(path)


def test_bmch_bad_version(tmp_path):
    path = tmp_path / "bad.bmch"
    path.write_bytes(b"BMCH" + (99).to_bytes(4, "little") + b"\x00" * 24)
    with pytest.raises(FormatError):
        ch.import_channels(path)


def test_bmch_truncated_payload(tmp_path):
    cfg = _tiny_config()
    tensor = ch.generate_channels(cfg, seed=7, n_users=1)
    path = tmp_path / "trunc.bmch"
    ch.export_channels(path, tensor)
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(IOError):
        ch.import_channels(path)
