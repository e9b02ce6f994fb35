"""DFT codebooks, analog projection, beamspace transforms, file round-trip."""
import hashlib

import numpy as np
import pytest

from conftest import assert_grads_match

from beamweaver import autodiff as ad
from beamweaver import codebook as cb
from beamweaver.channel import ArrayGeometry
from beamweaver.errors import ConfigError, ShapeError

FULL = (-1.01, 1.01)  # elevation window disabling pruning on test grids
DOWNTILT = (-0.6, 0.05)  # NblDims' default elevation window


def _geo(nx=4, ny=4, dual=True):
    return ArrayGeometry(n_x=nx, n_y=ny, dual_polarized=dual)


# --------------------------- transform matrices --------------------------

def test_transform_matrix_critical_is_unitary():
    u = cb.transform_matrix(4, 4)
    np.testing.assert_allclose(np.conj(u.T) @ u, np.eye(4), atol=1e-12)


def test_transform_matrix_rejects_undersampling():
    with pytest.raises(ConfigError):
        cb.transform_matrix(4, 3)


def test_pseudo_inverse_property():
    # the DFT CSI-RS codebook's oversampled grid, and the critical maps
    for n in (1, 2, 4):
        u = cb.transform_matrix(n, cb.CSIRS_OVERSAMPLING * n)
        pinv = np.linalg.pinv(u)
        np.testing.assert_allclose(u @ pinv @ u, u, atol=1e-10)
        np.testing.assert_allclose(pinv @ u @ pinv, pinv, atol=1e-10)
        u, pinv = cb._axis_maps(n)
        np.testing.assert_allclose(u @ pinv @ u, u, atol=1e-10)
        np.testing.assert_allclose(pinv @ u, np.eye(n), atol=1e-12)


def test_axis_maps_are_cached_and_read_only():
    u, pinv = cb._axis_maps(4)
    assert cb._axis_maps(4)[0] is u and cb._axis_maps(4)[1] is pinv
    for a in (u, pinv):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


# ------------------------------ DFT builders -----------------------------

def test_build_dft_ssb_4pt_line():
    geo = _geo(4, 1, dual=False)
    beams = cb.build_dft_ssb(geo, l_max=4, elevation_window=FULL)
    np.testing.assert_allclose(beams[0], np.full(4, 0.5), atol=1e-12)
    n = np.arange(4)
    for k in range(4):
        np.testing.assert_allclose(beams[k], np.exp(2j * np.pi * n * k / 4) / 2,
                                   atol=1e-12)


def test_ssb_beams_unit_norm():
    beams = cb.build_dft_ssb(_geo(), l_max=8, elevation_window=DOWNTILT)
    np.testing.assert_allclose(np.linalg.norm(beams, axis=1), 1.0, atol=1e-12)


def test_ssb_orthogonal_at_critical_sampling():
    beams = cb.build_dft_ssb(_geo(4, 4), l_max=16, elevation_window=FULL)
    gram = np.abs(beams @ np.conj(beams.T))
    np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-10)
    assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-10


def test_downtilt_pruning_halves_symmetric_grid():
    full = cb._grid_candidates(4, 4, FULL, spacing=0.5)
    down = cb._grid_candidates(4, 4, (-1.01, 0.0), spacing=0.5)
    assert len(full) == 16 and len(down) == 8


# Frozen reference: the DFT builders as they were before they were
# vectorized, one Python call per candidate and per beam.

def _frozen_grid_candidates(n_x, n_y, elevation_window, spacing):
    lo, hi = elevation_window
    cands = []
    ky_order = np.argsort(cb.grid_sin_elevation(np.arange(n_y), n_y, spacing))
    for ky in ky_order:
        s = float(cb.grid_sin_elevation(np.array(ky), n_y, spacing))
        if lo <= s <= hi:
            for kx in range(n_x):
                cands.append((kx, int(ky)))
    return cands


def _frozen_grid_beam(u_x, u_y, kx, ky, geometry):
    panel = np.outer(u_x[:, kx], np.conj(u_y[:, ky])).reshape(-1)
    if geometry.dual_polarized:
        return np.concatenate([panel, panel]) / np.sqrt(2.0)
    return panel


def _frozen_build_dft(geometry, l_max, n_cb, b_g, elevation_window, oversampling=4):
    u_x = cb.transform_matrix(geometry.n_x, geometry.n_x)
    u_y = cb.transform_matrix(geometry.n_y, geometry.n_y)
    cands = _frozen_grid_candidates(geometry.n_x, geometry.n_y, elevation_window,
                                    geometry.element_spacing)
    picks = np.linspace(0, len(cands), l_max, endpoint=False).astype(int)
    ssb = np.stack([_frozen_grid_beam(u_x, u_y, *cands[i], geometry) for i in picks])
    u_x = cb.transform_matrix(geometry.n_x, oversampling * geometry.n_x)
    u_y = cb.transform_matrix(geometry.n_y, oversampling * geometry.n_y)
    cands = _frozen_grid_candidates(oversampling * geometry.n_x,
                                    oversampling * geometry.n_y, elevation_window,
                                    geometry.element_spacing)
    picks = np.linspace(0, len(cands), n_cb * b_g, endpoint=False).astype(int)
    cols = [_frozen_grid_beam(u_x, u_y, *cands[i], geometry) for i in picks]
    csirs = np.stack([np.stack(cols[j * b_g:(j + 1) * b_g], axis=1) for j in range(n_cb)])
    return ssb, csirs


@pytest.mark.parametrize("window", [(-0.6, 0.05), FULL, (-1.01, 0.0)])
@pytest.mark.parametrize("shape,dual", [((4, 4), True), ((8, 8), True), ((4, 1), False),
                                        ((1, 4), True), ((5, 3), False), ((2, 6), True),
                                        ((8, 4), False), ((3, 3), True)])
def test_dft_builders_match_frozen_per_beam_loop(shape, dual, window):
    geo = _geo(*shape, dual=dual)
    n_points = len(_frozen_grid_candidates(*shape, window, 0.5))
    n_fine = len(_frozen_grid_candidates(4 * shape[0], 4 * shape[1], window, 0.5))
    l_max, b_g = min(8, n_points), 2 if dual else 1
    n_cb = min(16, n_fine // b_g)
    want_ssb, want_csirs = _frozen_build_dft(geo, l_max, n_cb, b_g, window)
    ssb = cb.build_dft_ssb(geo, l_max, window)
    csirs = cb.build_dft_csirs(geo, n_cb, b_g, elevation_window=window)
    np.testing.assert_array_equal(ssb, want_ssb)
    np.testing.assert_array_equal(csirs, want_csirs)
    assert ssb.flags.c_contiguous and csirs.flags.c_contiguous
    assert [tuple(c) for c in cb._grid_candidates(*shape, window, 0.5)] == \
        _frozen_grid_candidates(*shape, window, 0.5)


def test_ssb_infeasible_l_max():
    with pytest.raises(ConfigError):
        cb.build_dft_ssb(_geo(2, 2, dual=False), l_max=64, elevation_window=FULL)


def test_build_dft_csirs_grouping_rule(monkeypatch):
    monkeypatch.setattr(cb, "CSIRS_OVERSAMPLING", 1)
    geo = _geo(4, 1, dual=False)
    precoders = cb.build_dft_csirs(geo, n_cb=2, b_g=2, elevation_window=FULL)
    n = np.arange(4)
    grid = [np.exp(2j * np.pi * n * k / 4) / 2 for k in range(4)]
    np.testing.assert_allclose(precoders[0][:, 0], grid[0], atol=1e-12)
    np.testing.assert_allclose(precoders[0][:, 1], grid[1], atol=1e-12)
    np.testing.assert_allclose(precoders[1][:, 0], grid[2], atol=1e-12)
    np.testing.assert_allclose(precoders[1][:, 1], grid[3], atol=1e-12)


def test_csirs_columns_unit_norm():
    precoders = cb.build_dft_csirs(_geo(), n_cb=8, b_g=4, elevation_window=DOWNTILT)
    norms = np.linalg.norm(precoders, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_csirs_within_precoder_correlation_exceeds_cross(monkeypatch):
    monkeypatch.setattr(cb, "CSIRS_OVERSAMPLING", 2)
    geo = _geo(4, 1, dual=False)
    # keep a single elevation row so the 8 oversampled azimuth beams are
    # picked contiguously (adjacent within each precoder)
    precoders = cb.build_dft_csirs(geo, n_cb=4, b_g=2, elevation_window=(-0.5, 0.05))
    cols = np.swapaxes(precoders, 1, 2).reshape(-1, 4)  # (8, NT)
    gram = np.abs(cols @ np.conj(cols.T))
    within = [gram[2 * j, 2 * j + 1] for j in range(4)]
    cross = [gram[i, j] for i in range(8) for j in range(i + 1, 8) if i // 2 != j // 2]
    assert min(within) > np.mean(cross)


def test_csirs_infeasible_size(monkeypatch):
    monkeypatch.setattr(cb, "CSIRS_OVERSAMPLING", 1)
    with pytest.raises(ConfigError):
        cb.build_dft_csirs(_geo(2, 2, dual=False), n_cb=16, b_g=4, elevation_window=FULL)


# ---------------------------- analog projection --------------------------

def test_project_analog_tie_toward_smaller_phase():
    beams = np.full((1, 16), 0.3 * np.exp(1j * np.pi / 3))
    out = cb.project_analog(beams, b_phase=1)
    np.testing.assert_allclose(out, np.full((1, 16), 0.25), atol=1e-12)  # phase snaps to 0


def test_project_analog_infinite_bits():
    rng = np.random.default_rng(1)
    beams = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    out = cb.project_analog(beams, b_phase=None)
    np.testing.assert_allclose(np.abs(out), 1.0 / np.sqrt(8.0), atol=1e-12)
    np.testing.assert_allclose(np.angle(out), np.angle(beams), atol=1e-12)


def test_project_analog_phase_error_bound():
    rng = np.random.default_rng(2)
    beams = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    for b_phase in (1, 2, 4):
        out = cb.project_analog(beams, b_phase)
        d = np.angle(out * np.conj(beams))
        assert np.abs(d).max() <= np.pi / 2 ** b_phase + 1e-12


def test_project_analog_zero_entry_rule():
    out = cb.project_analog(np.zeros((1, 4)), b_phase=3)
    np.testing.assert_allclose(out, 0.5)  # phase 0, magnitude 1/sqrt(4)


def test_project_analog_rejects_bad_bits():
    with pytest.raises(ConfigError):
        cb.project_analog(np.ones((1, 2)), b_phase=0)


# ------------------------------- beamspace -------------------------------

def test_dft_beams_map_to_one_hot():
    geo = _geo(4, 4)
    beams = cb.build_dft_ssb(geo, l_max=8, elevation_window=FULL)
    interiors = cb.beamspace_forward(beams, geo)[:, :4, :4]
    for interior in interiors:
        mags = np.sort(np.abs(interior).reshape(-1))
        assert mags[-1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)
        assert mags[-2] < 1e-10  # exactly one nonzero entry


def test_beamspace_padding_layout():
    geo = _geo(2, 2, dual=False)
    beams = cb.build_dft_ssb(geo, l_max=2, elevation_window=FULL)
    img = cb.beamspace_forward(beams, geo, beam_counts=[3, 0],
                               beam_rsrp=[1.5, 0.0])
    assert img[0][2, 0] == 3.0 and img[0][0, 2] == 1.5
    assert img[0][2, 1] == 0.0 and img[0][2, 2] == 0.0
    assert img[1][2, 0] == 0.0 and img[1][0, 2] == 0.0


def test_beamspace_zero_users_padding_zero():
    geo = _geo(2, 2, dual=False)
    beams = cb.build_dft_ssb(geo, l_max=2, elevation_window=FULL)
    img = cb.beamspace_forward(beams, geo)
    assert not img[:, 2, :].any() and not img[:, :, 2].any()


def test_beamspace_rsrp_scaling_linearity():
    geo = _geo(2, 2, dual=False)
    beams = cb.build_dft_ssb(geo, l_max=2, elevation_window=FULL)
    a = cb.beamspace_forward(beams, geo, beam_counts=[1, 1], beam_rsrp=[2.0, 3.0])
    b = cb.beamspace_forward(beams, geo, beam_counts=[1, 1], beam_rsrp=[4.0, 6.0])
    np.testing.assert_allclose(b[:, 0, 2], 2.0 * a[:, 0, 2])
    np.testing.assert_allclose(b[:, :2, :2], a[:, :2, :2])


def test_beamspace_forward_linearity():
    geo = _geo(3, 2, dual=False)
    rng = np.random.default_rng(7)
    f = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    g = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    lhs = cb.beamspace_forward(2.0 * f + 3.0j * g, geo)[:, :3, :2]
    rhs = (2.0 * cb.beamspace_forward(f, geo)[:, :3, :2]
           + 3.0j * cb.beamspace_forward(g, geo)[:, :3, :2])
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def _frozen_maps(geometry):
    """The maps as the transform pair held them, for an N_X x N_Y array:
    U_x, U_y and their pseudo-inverses."""
    u_x = cb.transform_matrix(geometry.n_x, geometry.n_x)
    u_y = cb.transform_matrix(geometry.n_y, geometry.n_y)
    return u_x, u_y, np.linalg.pinv(u_x), np.linalg.pinv(u_y)


def _frozen_beamspace_forward(beams, geometry, counts, rsrp):
    """The per-beam, per-polarization image loop as first written."""
    n_pol = 2 if geometry.dual_polarized else 1
    n_x, n_y = geometry.n_x, geometry.n_y
    u_x, u_y, _, _ = _frozen_maps(geometry)
    images = np.zeros((len(beams) * n_pol, n_x + 1, n_y + 1), dtype=np.complex128)
    uxh = np.conj(u_x.T)
    for i in range(len(beams)):
        mats = beams[i].reshape(n_pol, n_x, n_y)
        for p in range(n_pol):
            img = images[i * n_pol + p]
            img[:n_x, :n_y] = uxh @ mats[p] @ u_y
            img[n_x, 0] = counts[i]
            img[0, n_y] = rsrp[i]
    return images


def _frozen_beamspace_inverse(interiors, geometry):
    n_pol = 2 if geometry.dual_polarized else 1
    _, _, u_x_pinv, u_y_pinv = _frozen_maps(geometry)
    left = np.conj(u_x_pinv.T)
    beams = []
    for i in range(len(interiors) // n_pol):
        panels = [left @ interiors[i * n_pol + p] @ u_y_pinv for p in range(n_pol)]
        beams.append(np.concatenate([m.reshape(-1) for m in panels]))
    return np.array(beams)


def test_beamspace_maps_match_frozen_per_beam_loops():
    # a dual-pol and a non-square single-pol array, feedback in the padding
    rng = np.random.default_rng(11)
    for geo in (_geo(4, 2, dual=True), _geo(3, 5, dual=False)):
        beams = (rng.standard_normal((5, geo.n_elements))
                 + 1j * rng.standard_normal((5, geo.n_elements)))
        counts, rsrp = rng.integers(0, 4, 5), rng.random(5)
        got = cb.beamspace_forward(beams, geo, counts, rsrp)
        want = _frozen_beamspace_forward(beams, geo, counts, rsrp)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        interiors = got[:, :geo.n_x, :geo.n_y]
        np.testing.assert_allclose(cb.beamspace_inverse(interiors, geo).value,
                                   _frozen_beamspace_inverse(interiors, geo),
                                   rtol=1e-13, atol=0)


@pytest.mark.parametrize("nx, ny, dual", [(1, 1, False), (4, 4, True), (3, 5, False),
                                          (8, 2, True)])
def test_beamspace_maps_match_the_transform_pair_bit_for_bit(nx, ny, dual):
    # the batched expressions of the transform pair that held U_x, U_y and
    # their pseudo-inverses per geometry, frozen: the cached maps give the
    # same bits, and so do the SSB beams built on them
    geo = _geo(nx, ny, dual)
    u_x, u_y, u_x_pinv, u_y_pinv = _frozen_maps(geo)
    rng = np.random.default_rng(nx * 10 + ny)
    n_img = 3 * geo.n_pol
    beams = (rng.standard_normal((3, geo.n_elements))
             + 1j * rng.standard_normal((3, geo.n_elements)))
    counts, rsrp = rng.integers(0, 4, 3), rng.random(3)
    want = np.zeros((n_img, nx + 1, ny + 1), dtype=np.complex128)
    want[:, :nx, :ny] = np.conj(u_x.T) @ beams.reshape(-1, nx, ny) @ u_y
    want[:, nx, 0] = np.repeat(counts.astype(float), geo.n_pol)
    want[:, 0, ny] = np.repeat(rsrp, geo.n_pol)
    np.testing.assert_array_equal(cb.beamspace_forward(beams, geo, counts, rsrp), want)
    interiors = (rng.standard_normal((2, n_img, nx, ny))
                 + 1j * rng.standard_normal((2, n_img, nx, ny)))
    want = ((np.conj(u_x_pinv.T) @ interiors) @ u_y_pinv).reshape(2, 3, geo.n_elements)
    np.testing.assert_array_equal(cb.beamspace_inverse(interiors, geo).value, want)
    cands = cb._grid_candidates(nx, ny, FULL, geo.element_spacing)
    np.testing.assert_array_equal(cb.build_dft_ssb(geo, len(cands), FULL),
                                  cb._grid_beams(u_x, u_y, *cands.T, geo))


def _inverse(interiors, geo, lead):
    """``beamspace_inverse`` of an interior array, or of a DiffTensor holding
    it as drop 1 of 2 on a leading drop axis.

    The drop-axis path must give the array path's beams bit for bit, and
    its gradient must match finite differences.
    """
    want = cb.beamspace_inverse(interiors, geo).value
    if lead == "array":
        return want
    rng = np.random.default_rng(5)
    stack = np.stack([rng.standard_normal(interiors.shape)
                      + 1j * rng.standard_normal(interiors.shape), interiors])
    got = cb.beamspace_inverse(ad.constant(stack), geo).value
    assert got.shape == (2,) + want.shape
    np.testing.assert_array_equal(got[1], want)
    weights = rng.standard_normal(got.shape) + 1j * rng.standard_normal(got.shape)
    assert_grads_match(lambda t: ad.sum_axis(ad.reshape(ad.real(ad.mul(
        cb.beamspace_inverse(t, geo), ad.constant(weights))), (-1,)), 0),
        [stack], rtol=1e-7)
    return got[1]


@pytest.mark.parametrize("lead", ["array", "drop-axis"])
def test_round_trip_critical_sampling(lead):
    geo = _geo(4, 4)
    rng = np.random.default_rng(3)
    beams = rng.standard_normal((5, 32)) + 1j * rng.standard_normal((5, 32))
    img = cb.beamspace_forward(beams, geo)
    back = _inverse(img[:, :geo.n_x, :geo.n_y], geo, lead)
    assert np.linalg.norm(back - beams) / np.linalg.norm(beams) < 1e-9


@pytest.mark.parametrize("lead", ["array", "drop-axis"])
def test_round_trip_oversampled_grid_beams(lead):
    # the DFT CSI-RS beams, off the oversampled grid, through the critical maps
    geo = _geo(4, 2, dual=True)
    precoders = cb.build_dft_csirs(geo, n_cb=4, b_g=2, elevation_window=FULL)
    beams = np.swapaxes(precoders, 1, 2).reshape(-1, geo.n_elements)
    img = cb.beamspace_forward(beams, geo)
    back = _inverse(img[:, :geo.n_x, :geo.n_y], geo, lead)
    assert np.linalg.norm(back - beams) / np.linalg.norm(beams) < 1e-8


def test_inverse_of_zero_image_projects_to_uniform_phase():
    geo = _geo(2, 2, dual=False)
    beams = cb.beamspace_inverse(np.zeros((1, 2, 2)), geo).value
    assert not beams.any()
    projected = cb.project_analog(beams, b_phase=4)
    np.testing.assert_allclose(projected, 0.5)  # uniform zero phase


def test_inverse_dimension_mismatch():
    geo = _geo(2, 2, dual=False)
    with pytest.raises(ShapeError):
        cb.beamspace_inverse(np.zeros((1, 3, 3)), geo)
    with pytest.raises(ShapeError):  # no image axis
        cb.beamspace_inverse(np.zeros((2, 2)), geo)


# ------------------------------ file format ------------------------------

def test_codebook_file_round_trip(tmp_path):
    geo = _geo()
    ssb = cb.build_dft_ssb(geo, l_max=4, elevation_window=DOWNTILT)
    csirs = cb.build_dft_csirs(geo, n_cb=4, b_g=2, elevation_window=DOWNTILT)
    path = tmp_path / "books.json"
    cb.save_codebooks(path, geo, ssb, csirs)
    geo2, ssb2, csirs2 = cb.load_codebooks(path)
    assert geo2 == geo
    assert ssb2.dtype == csirs2.dtype == np.complex128
    assert np.array_equal(ssb, ssb2)
    assert np.array_equal(csirs, csirs2)


# save_codebooks' bytes for two small DFT books, recorded while the books were
# still wrapped in codebook classes; the file format must not move
_FROZEN_TINY_FILE = (
    b'{"format": "beamweaver-codebook-v1", "geometry": {"n_x": 2, "n_y": 1, '
    b'"dual_polarized": false, "element_spacing": 0.5, "carrier_frequency": '
    b'10000000000.0}, "ssb": [[[0.7071067811865475, 0.0], [0.7071067811865475, '
    b'0.0]], [[0.7071067811865475, 0.0], [-0.7071067811865475, '
    b'8.659560562354932e-17]]], "csirs": [[[[0.7071067811865475, 0.0]], '
    b'[[0.7071067811865475, 0.0]]], [[[0.7071067811865475, 0.0]], '
    b'[[0.7071067811865475, 0.0]]]]}')
_FROZEN_DUAL_SHA256 = "ac692c5b43a3f8f38e047d7a32941215ccb22ce93dfd2c91b91e815572b36c39"


def test_codebook_file_bytes_are_frozen(tmp_path):
    path = tmp_path / "books.json"
    geo = _geo(2, 1, dual=False)
    cb.save_codebooks(path, geo, cb.build_dft_ssb(geo, 2, FULL),
                      cb.build_dft_csirs(geo, 2, 1, FULL))
    assert path.read_bytes() == _FROZEN_TINY_FILE
    geo = _geo(4, 4, dual=True)
    cb.save_codebooks(path, geo, cb.build_dft_ssb(geo, 4, DOWNTILT),
                      cb.build_dft_csirs(geo, 4, 2, DOWNTILT))
    data = path.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (16112, _FROZEN_DUAL_SHA256)


def test_codebook_file_bad_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ConfigError):
        cb.load_codebooks(path)
