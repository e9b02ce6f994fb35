"""DFT codebooks, analog projection, beamspace transforms, file round-trip."""
import numpy as np
import pytest

from conftest import assert_grads_match

from beamweaver import autodiff as ad
from beamweaver import codebook as cb
from beamweaver.channel import ArrayGeometry
from beamweaver.errors import ConfigError, ShapeError

FULL = (-1.01, 1.01)  # elevation window disabling pruning on test grids


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
    pair = cb.make_transform_pair(_geo(4, 2, dual=False), n_xo=8, n_yo=4)
    for u, pinv in ((pair.u_x, pair.u_x_pinv), (pair.u_y, pair.u_y_pinv)):
        np.testing.assert_allclose(u @ pinv @ u, u, atol=1e-10)


# ------------------------------ DFT builders -----------------------------

def test_build_dft_ssb_4pt_line():
    geo = _geo(4, 1, dual=False)
    book = cb.build_dft_ssb(geo, l_max=4, elevation_window=FULL)
    np.testing.assert_allclose(book.beams[0], np.full(4, 0.5), atol=1e-12)
    n = np.arange(4)
    for k in range(4):
        np.testing.assert_allclose(book.beams[k], np.exp(2j * np.pi * n * k / 4) / 2,
                                   atol=1e-12)


def test_ssb_beams_unit_norm():
    book = cb.build_dft_ssb(_geo(), l_max=8)
    np.testing.assert_allclose(np.linalg.norm(book.beams, axis=1), 1.0, atol=1e-12)


def test_ssb_orthogonal_at_critical_sampling():
    book = cb.build_dft_ssb(_geo(4, 4), l_max=16, elevation_window=FULL)
    gram = np.abs(book.beams @ np.conj(book.beams.T))
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
    np.testing.assert_array_equal(ssb.beams, want_ssb)
    np.testing.assert_array_equal(csirs.precoders, want_csirs)
    assert ssb.beams.flags.c_contiguous and csirs.precoders.flags.c_contiguous
    assert [tuple(c) for c in cb._grid_candidates(*shape, window, 0.5)] == \
        _frozen_grid_candidates(*shape, window, 0.5)


def test_ssb_infeasible_l_max():
    with pytest.raises(ConfigError):
        cb.build_dft_ssb(_geo(2, 2, dual=False), l_max=64, elevation_window=FULL)


def test_build_dft_csirs_grouping_rule():
    geo = _geo(4, 1, dual=False)
    book = cb.build_dft_csirs(geo, n_cb=2, b_g=2, oversampling=1, elevation_window=FULL)
    n = np.arange(4)
    grid = [np.exp(2j * np.pi * n * k / 4) / 2 for k in range(4)]
    np.testing.assert_allclose(book.precoders[0][:, 0], grid[0], atol=1e-12)
    np.testing.assert_allclose(book.precoders[0][:, 1], grid[1], atol=1e-12)
    np.testing.assert_allclose(book.precoders[1][:, 0], grid[2], atol=1e-12)
    np.testing.assert_allclose(book.precoders[1][:, 1], grid[3], atol=1e-12)


def test_csirs_columns_unit_norm():
    book = cb.build_dft_csirs(_geo(), n_cb=8, b_g=4)
    norms = np.linalg.norm(book.precoders, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_csirs_within_precoder_correlation_exceeds_cross():
    geo = _geo(4, 1, dual=False)
    # keep a single elevation row so the 8 oversampled azimuth beams are
    # picked contiguously (adjacent within each precoder)
    book = cb.build_dft_csirs(geo, n_cb=4, b_g=2, oversampling=2,
                              elevation_window=(-0.5, 0.05))
    cols = np.swapaxes(book.precoders, 1, 2).reshape(-1, 4)  # (8, NT)
    gram = np.abs(cols @ np.conj(cols.T))
    within = [gram[2 * j, 2 * j + 1] for j in range(4)]
    cross = [gram[i, j] for i in range(8) for j in range(i + 1, 8) if i // 2 != j // 2]
    assert min(within) > np.mean(cross)


def test_csirs_infeasible_size():
    with pytest.raises(ConfigError):
        cb.build_dft_csirs(_geo(2, 2, dual=False), n_cb=16, b_g=4, oversampling=1,
                           elevation_window=FULL)


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
    pair = cb.make_transform_pair(geo)
    book = cb.build_dft_ssb(geo, l_max=8, elevation_window=FULL)
    interiors = cb.beamspace_forward(book.beams, pair, geo)[:, :4, :4]
    for interior in interiors:
        mags = np.sort(np.abs(interior).reshape(-1))
        assert mags[-1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)
        assert mags[-2] < 1e-10  # exactly one nonzero entry


def test_beamspace_padding_layout():
    geo = _geo(2, 2, dual=False)
    pair = cb.make_transform_pair(geo)
    beams = cb.build_dft_ssb(geo, l_max=2, elevation_window=FULL).beams
    img = cb.beamspace_forward(beams, pair, geo, beam_counts=[3, 0],
                               beam_rsrp=[1.5, 0.0])
    assert img[0][2, 0] == 3.0 and img[0][0, 2] == 1.5
    assert img[0][2, 1] == 0.0 and img[0][2, 2] == 0.0
    assert img[1][2, 0] == 0.0 and img[1][0, 2] == 0.0


def test_beamspace_zero_users_padding_zero():
    geo = _geo(2, 2, dual=False)
    pair = cb.make_transform_pair(geo)
    beams = cb.build_dft_ssb(geo, l_max=2, elevation_window=FULL).beams
    img = cb.beamspace_forward(beams, pair, geo)
    assert not img[:, 2, :].any() and not img[:, :, 2].any()


def test_beamspace_rsrp_scaling_linearity():
    geo = _geo(2, 2, dual=False)
    pair = cb.make_transform_pair(geo)
    beams = cb.build_dft_ssb(geo, l_max=2, elevation_window=FULL).beams
    a = cb.beamspace_forward(beams, pair, geo, beam_counts=[1, 1], beam_rsrp=[2.0, 3.0])
    b = cb.beamspace_forward(beams, pair, geo, beam_counts=[1, 1], beam_rsrp=[4.0, 6.0])
    np.testing.assert_allclose(b[:, 0, 2], 2.0 * a[:, 0, 2])
    np.testing.assert_allclose(b[:, :2, :2], a[:, :2, :2])


def test_beamspace_forward_linearity():
    geo = _geo(3, 2, dual=False)
    pair = cb.make_transform_pair(geo)
    rng = np.random.default_rng(7)
    f = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    g = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    lhs = cb.beamspace_forward(2.0 * f + 3.0j * g, pair, geo)[:, :3, :2]
    rhs = (2.0 * cb.beamspace_forward(f, pair, geo)[:, :3, :2]
           + 3.0j * cb.beamspace_forward(g, pair, geo)[:, :3, :2])
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def _frozen_beamspace_forward(beams, pair, geometry, counts, rsrp):
    """The per-beam, per-polarization image loop as first written."""
    n_pol = 2 if geometry.dual_polarized else 1
    images = np.zeros((len(beams) * n_pol, pair.n_xo + 1, pair.n_yo + 1),
                      dtype=np.complex128)
    uxh = np.conj(pair.u_x.T)
    for i in range(len(beams)):
        mats = beams[i].reshape(n_pol, geometry.n_x, geometry.n_y)
        for p in range(n_pol):
            img = images[i * n_pol + p]
            img[:pair.n_xo, :pair.n_yo] = uxh @ mats[p] @ pair.u_y
            img[pair.n_xo, 0] = counts[i]
            img[0, pair.n_yo] = rsrp[i]
    return images


def _frozen_beamspace_inverse(interiors, pair, geometry):
    n_pol = 2 if geometry.dual_polarized else 1
    left = np.conj(pair.u_x_pinv.T)
    beams = []
    for i in range(len(interiors) // n_pol):
        panels = [left @ interiors[i * n_pol + p] @ pair.u_y_pinv for p in range(n_pol)]
        beams.append(np.concatenate([m.reshape(-1) for m in panels]))
    return np.array(beams)


def test_beamspace_maps_match_frozen_per_beam_loops():
    # dual-pol, non-square oversampled grid, feedback in the padding
    geo = _geo(4, 2, dual=True)
    pair = cb.make_transform_pair(geo, n_xo=8, n_yo=3)
    rng = np.random.default_rng(11)
    beams = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
    counts, rsrp = rng.integers(0, 4, 5), rng.random(5)
    got = cb.beamspace_forward(beams, pair, geo, counts, rsrp)
    want = _frozen_beamspace_forward(beams, pair, geo, counts, rsrp)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    interiors = got[:, :8, :3]
    np.testing.assert_allclose(cb.beamspace_inverse(interiors, pair, geo).value,
                               _frozen_beamspace_inverse(interiors, pair, geo),
                               rtol=1e-13, atol=0)


def _inverse(interiors, pair, geo, lead):
    """``beamspace_inverse`` of an interior array, or of a DiffTensor holding
    it as drop 1 of 2 on a leading drop axis.

    The drop-axis path must give the array path's beams bit for bit, and
    its gradient must match finite differences.
    """
    want = cb.beamspace_inverse(interiors, pair, geo).value
    if lead == "array":
        return want
    rng = np.random.default_rng(5)
    stack = np.stack([rng.standard_normal(interiors.shape)
                      + 1j * rng.standard_normal(interiors.shape), interiors])
    got = cb.beamspace_inverse(ad.constant(stack), pair, geo).value
    assert got.shape == (2,) + want.shape
    np.testing.assert_array_equal(got[1], want)
    weights = rng.standard_normal(got.shape) + 1j * rng.standard_normal(got.shape)
    assert_grads_match(lambda t: ad.sum_axis(ad.reshape(ad.real(ad.mul(
        cb.beamspace_inverse(t, pair, geo), ad.constant(weights))), (-1,)), 0),
        [stack], rtol=1e-7)
    return got[1]


@pytest.mark.parametrize("lead", ["array", "drop-axis"])
def test_round_trip_critical_sampling(lead):
    geo = _geo(4, 4)
    pair = cb.make_transform_pair(geo)
    rng = np.random.default_rng(3)
    beams = rng.standard_normal((5, 32)) + 1j * rng.standard_normal((5, 32))
    img = cb.beamspace_forward(beams, pair, geo)
    back = _inverse(img[:, :pair.n_xo, :pair.n_yo], pair, geo, lead)
    assert np.linalg.norm(back - beams) / np.linalg.norm(beams) < 1e-9


@pytest.mark.parametrize("lead", ["array", "drop-axis"])
def test_round_trip_oversampled_grid_beams(lead):
    geo = _geo(4, 2, dual=True)
    pair = cb.make_transform_pair(geo, n_xo=8, n_yo=4)
    beams = cb._grid_beams(pair.u_x, pair.u_y, np.array([0, 3, 7]), np.array([0, 1, 3]),
                           geo)
    img = cb.beamspace_forward(beams, pair, geo)
    back = _inverse(img[:, :pair.n_xo, :pair.n_yo], pair, geo, lead)
    assert np.linalg.norm(back - beams) / np.linalg.norm(beams) < 1e-8


def test_inverse_of_zero_image_projects_to_uniform_phase():
    geo = _geo(2, 2, dual=False)
    pair = cb.make_transform_pair(geo)
    beams = cb.beamspace_inverse(np.zeros((1, 2, 2)), pair, geo).value
    assert not beams.any()
    projected = cb.project_analog(beams, b_phase=4)
    np.testing.assert_allclose(projected, 0.5)  # uniform zero phase


def test_inverse_dimension_mismatch():
    geo = _geo(2, 2, dual=False)
    pair = cb.make_transform_pair(geo)
    with pytest.raises(ShapeError):
        cb.beamspace_inverse(np.zeros((1, 3, 3)), pair, geo)
    with pytest.raises(ShapeError):  # no image axis
        cb.beamspace_inverse(np.zeros((2, 2)), pair, geo)


# ------------------------------ file format ------------------------------

def test_codebook_file_round_trip(tmp_path):
    geo = _geo()
    ssb = cb.build_dft_ssb(geo, l_max=4)
    csirs = cb.build_dft_csirs(geo, n_cb=4, b_g=2)
    path = tmp_path / "books.json"
    cb.save_codebooks(path, ssb, csirs)
    ssb2, csirs2 = cb.load_codebooks(path)
    assert np.array_equal(ssb.beams, ssb2.beams)
    assert np.array_equal(csirs.precoders, csirs2.precoders)
    assert ssb2.geometry == geo


def test_codebook_file_bad_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ConfigError):
        cb.load_codebooks(path)
