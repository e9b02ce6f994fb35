"""Protocol core: SSB reception, RSRP, feedback, subsets, SINR, SE."""
import numpy as np
import pytest

from beamweaver import autodiff as ad
from beamweaver import beam_mgmt as bm
from beamweaver import channel as ch
from beamweaver import codebook as cb
from beamweaver import metrics as mx
from beamweaver import nbl
from beamweaver.channel import ArrayGeometry, ChannelTensor, _stream
from beamweaver.errors import ConfigError, DomainError, ShapeError

from conftest import (analytic_gradients, assert_grads_match, frozen_achievable_se,
                      frozen_beam_signals, frozen_csirs_sinr, frozen_rsrp_tensor)


def _tensor(values):
    """A channel array rounded to complex64, as ``ChannelTensor`` stores it."""
    return ChannelTensor(values=np.asarray(values, dtype=np.complex64)).values


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# every axis a different size, T > 1 and K > 1, so a reshape that mixes up
# two axes of the channel or codebook products changes the result
_C, _U, _T, _K, _NR, _NT, _L, _NCSI, _BG = 4, 5, 2, 8, 6, 9, 10, 7, 3


# ------------------------------ SSB receive ------------------------------

def test_ssb_receive_trivial_unity():
    h = _tensor(np.ones((1, 1, 1, 1, 1, 1)))
    sig = bm._beam_signals(h, [np.ones((1, 1))])
    np.testing.assert_allclose(sig.reshape(()), 1.0)


def test_ssb_receive_zero_channel():
    # MRC against a zero channel combines nothing, noise included
    h = _tensor(np.zeros((1, 1, 1, 1, 1, 1)))
    assert not bm._beam_signals(h, [np.ones((1, 1))]).any()
    assert not bm.measure_rsrp(h, [np.ones((1, 1))], sigma2=1.0, seed=0).any()


# both SSB measurements check the codebooks against the channel
_SSB_MEASURES = [lambda h, beams: bm.measure_rsrp(h, beams, sigma2=0.0, seed=0),
                 bm.rsrp_tensor]


def test_ssb_receive_codebook_count_mismatch():
    h = _tensor(np.ones((2, 1, 1, 1, 1, 1)))
    for measure in _SSB_MEASURES:
        with pytest.raises(ShapeError):
            measure(h, [np.ones((1, 1))])


@pytest.mark.parametrize("shape", [(1, 3), (2, 2)], ids=["nt", "l_max"])
def test_ssb_beam_shape_mismatch(shape):
    # the second cell's beams have the wrong element count or beam count
    h = _tensor(np.ones((2, 1, 1, 1, 1, 2)))
    for measure in _SSB_MEASURES:
        with pytest.raises(ShapeError):
            measure(h, [np.ones((1, 2)), np.ones(shape)])


def _frozen_ssb_rsrp(h, books, sigma2, seed):
    """The per-cell SSB sweep plus MRC measurement as first written: one
    (L, NT) @ (NT, U*T*K*N_R) product per cell, then the drop's noise."""
    c_cells, n_users, t_slots, k_sub, n_rx, n_t = h.shape
    l_max = books[0].shape[0]
    per_cell = np.empty((c_cells, l_max, n_users, t_slots, k_sub, n_rx),
                        dtype=np.complex128)
    for c in range(c_cells):
        prod = books[c] @ h[c].reshape(-1, n_t).T
        per_cell[c] = prod.reshape((l_max,) + h.shape[1:-1])
    signal = (1.0 / np.sqrt(k_sub * n_t)) * per_cell
    rng = _stream(seed, bm._NOISE_TAG, 0)
    noise = np.sqrt(sigma2 / 2.0) * (
        rng.standard_normal(signal.shape) + 1j * rng.standard_normal(signal.shape))
    ns2 = np.sum(np.abs(signal) ** 2, axis=-1)
    cross = np.abs(np.sum(np.conj(signal) * (signal + noise), axis=-1)) ** 2
    combined = np.where(ns2 > 0, cross / np.where(ns2 > 0, ns2, 1.0), 0.0)
    return combined.sum(axis=(-1, -2))


def test_noisy_measure_rsrp_matches_frozen_per_cell_sweep():
    rng = np.random.default_rng(23)
    h = _crandn(rng, _C, _U, _T, _K, _NR, _NT)
    books = [_crandn(rng, _L, _NT) for _ in range(_C)]
    clean = bm.measure_rsrp(h, books, sigma2=0.0, seed=0)
    sigma2 = 0.5 * float(clean.mean()) / (_T * _K)
    got = bm.measure_rsrp(h, books, sigma2, seed=31)
    want = _frozen_ssb_rsrp(h, books, sigma2, seed=31)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    assert np.abs(got - clean).min() > 1e-6 * clean.max()  # noise was drawn


def _frozen_measure_rsrp(h, books, sigma2, seed):
    """measure_rsrp's noise and MRC combining as they read with full-size
    temporaries for each draw, the scaled sum and the noisy signal, on the
    frozen autodiff sweep."""
    sig = frozen_beam_signals(h, books).value
    rng = _stream(seed, bm._NOISE_TAG, 0)
    noise = np.sqrt(sigma2 / 2.0) * (
        rng.standard_normal(sig.shape) + 1j * rng.standard_normal(sig.shape))
    ns2 = np.sum(np.abs(sig) ** 2, axis=-1)
    cross = np.abs(np.sum(np.conj(sig) * (sig + noise), axis=-1)) ** 2
    zero = ns2 == 0
    combined = np.where(zero, 0.0, cross / np.where(zero, 1.0, ns2))
    return combined.sum(axis=(-1, -2))


@pytest.mark.parametrize("sigma2", [0.0, 1e-9, 0.3, 50.0])
def test_measure_rsrp_matches_frozen_expression_bit_for_bit(sigma2):
    rng = np.random.default_rng(25)
    h = _crandn(rng, _C, _U, _T, _K, _NR, _NT)
    h[1, 2] = 0.0  # a zero link takes the exact-zero rule
    books = [_crandn(rng, _L, _NT) for _ in range(_C)]
    for seed in (0, 31, 7 * 1000003 + 5):
        got = bm.measure_rsrp(h, books, sigma2, seed)
        want = _frozen_measure_rsrp(h, books, sigma2, seed)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_measured_rsrp_ignores_other_cells_beams():
    # cell-specific DMRS decorrelate the other cells' sweeps
    rng = np.random.default_rng(24)
    h = _crandn(rng, 2, 3, 1, 2, 2, 4)
    books = [_crandn(rng, 3, 4) for _ in range(2)]
    a = bm.measure_rsrp(h, books, sigma2=0.2, seed=5)
    b = bm.measure_rsrp(h, [books[0], 2.0 * books[1]], sigma2=0.2, seed=5)
    np.testing.assert_array_equal(a[0], b[0])


# -------------------------------- RSRP -----------------------------------

def test_measure_rsrp_unity():
    h = _tensor(np.ones((1, 1, 1, 1, 1, 1)))
    np.testing.assert_allclose(bm.measure_rsrp(h, [np.ones((1, 1))], 0.0, 0),
                               [[[1.0]]])


def test_nonfinite_beam_reaches_the_feedback_check():
    # a NaN beam entry measures a NaN RSRP, not 0, so feedback refuses it
    rng = np.random.default_rng(9)
    h = _crandn(rng, 2, 3, 1, 2, 2, 4)
    books = [_crandn(rng, 3, 4) for _ in range(2)]
    books[1][0, 2] = np.nan
    rsrp = bm.measure_rsrp(h, books, sigma2=0.1, seed=4)
    assert np.isnan(rsrp[1, 0]).all()
    assert np.isfinite(rsrp[0]).all() and np.isfinite(rsrp[1, 1:]).all()
    with pytest.raises(DomainError):
        bm.aggregate_feedback(rsrp)


def test_rsrp_quadruples_with_double_gain():
    h = _tensor(np.ones((1, 1, 1, 1, 1, 1)))
    r1 = bm.measure_rsrp(h, [np.ones((1, 1))], 0.0, 0)
    r2 = bm.measure_rsrp(h, [2.0 * np.ones((1, 1))], 0.0, 0)
    np.testing.assert_allclose(r2, 4.0 * r1)


def test_matched_beam_maximizes_rsrp():
    rng = np.random.default_rng(5)
    hrow = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    h = _tensor(hrow.reshape(1, 1, 1, 1, 1, 4))
    matched = np.conj(hrow) / np.linalg.norm(hrow)
    best = bm.measure_rsrp(h, [matched[None]], 0.0, 0)[0, 0, 0]
    for _ in range(50):
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f /= np.linalg.norm(f)
        r = bm.measure_rsrp(h, [f[None]], 0.0, 0)[0, 0, 0]
        assert r <= best + 1e-9


def test_rsrp_tensor_matches_noiseless_measure():
    rng = np.random.default_rng(6)
    h = _crandn(rng, 2, 3, 1, 2, 2, 4)
    books = [_crandn(rng, 2, 4) for _ in range(2)]
    want = bm.measure_rsrp(_tensor(h), books, sigma2=0.0, seed=0)  # (C, L, U)
    got = bm.rsrp_tensor(_tensor(h), books)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_rsrp_tensor_matches_per_element_loop():
    rng = np.random.default_rng(17)
    h = _crandn(rng, _C, _U, _T, _K, _NR, _NT)
    books = [_crandn(rng, _L, _NT) for _ in range(_C)]
    want = np.zeros((_C, _L, _U))
    for c in range(_C):
        for l in range(_L):
            for u in range(_U):
                for t in range(_T):
                    for k in range(_K):
                        want[c, l, u] += np.sum(np.abs(h[c, u, t, k] @ books[c][l]) ** 2)
    want /= _K * _NT
    got = bm.rsrp_tensor(h, books)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_beam_rsrp_matches_rsrp_tensor_at_gathered_beams():
    rng = np.random.default_rng(19)
    h = _crandn(rng, _C, _U, _T, _K, _NR, _NT)
    books = [_crandn(rng, _L, _NT) for _ in range(_C)]
    index = rng.integers(0, _L, size=(_C, _U))
    beams = bm.gather_per_user(books, index)
    assert beams.shape == (_C, _U, _NT)
    got = bm.beam_rsrp(h, beams).value
    full = bm.rsrp_tensor(h, books)
    want = np.take_along_axis(full, index[:, None, :], axis=1)[:, 0]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    with pytest.raises(ShapeError):
        bm.beam_rsrp(h, ad.constant(np.ones((_C, _U + 1, _NT))))


# the desk scene of the acceptance tests, and the default one
_SCENES = {
    "desk": (ch.ScenarioConfig(
        c_cells=3, k_subcarriers=16, n_rx=2, user_count_range=(4, 8),
        n_hotspots=3, hotspot_fraction=1.0, hotspot_sigma=5.0,
        angle_spread_deg=3.0, cluster_count=3,
        geometry=ArrayGeometry(n_x=8, n_y=8, dual_polarized=True)),
        nbl.NblDims(l_max=24)),
    "default": (ch.ScenarioConfig(), nbl.NblDims()),
}


@pytest.mark.parametrize("book", ["dft", "perturbed"])
@pytest.mark.parametrize("scene", sorted(_SCENES))
def test_ssb_sweep_matches_frozen_autodiff_sweep_bit_for_bit(scene, book):
    config, dims = _SCENES[scene]
    ssb = nbl.dft_codebooks(config.geometry, dims)[0].beams
    rng = np.random.default_rng(29)
    for seed in (3, 4):
        if book == "dft":
            books = [ssb] * config.c_cells
        else:
            books = [ssb * np.exp(0.2j * rng.standard_normal(ssb.shape))
                     for _ in range(config.c_cells)]
        h = np.asarray(ch.generate_channels(config, seed).values, np.complex128)
        sig = bm._beam_signals(h, books)
        want = frozen_beam_signals(h, books).value
        assert sig.dtype == want.dtype and sig.shape == want.shape
        assert sig.tobytes() == want.tobytes()
        rsrp = bm.rsrp_tensor(h, books)
        want = frozen_rsrp_tensor(h, books).value
        assert rsrp.dtype == np.float64 and rsrp.shape == want.shape
        assert rsrp.tobytes() == want.real.tobytes()


def test_ssb_sweeps_build_no_autodiff_graph(monkeypatch):
    # the forward-only stages build no DiffTensor: the SSB sweeps and the
    # feedback images none, decide and a whole evaluate_drop only the
    # constant that SinrRecord holds
    books = {scene: nbl.dft_codebooks(config.geometry, dims)
             for scene, (config, dims) in _SCENES.items()}
    built = []
    init = ad.DiffTensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def count(fn, *args):
        built.clear()
        fn(*args)
        return len(built)

    monkeypatch.setattr(ad.DiffTensor, "__init__", counting_init)
    for scene, (config, dims) in sorted(_SCENES.items()):
        ssb, csirs = books[scene]
        beams, precoders = [ssb.beams] * config.c_cells, [csirs.precoders] * config.c_cells
        h = np.asarray(ch.generate_channels(config, 3).values, np.complex128)
        sigma2 = ch.noise_variance(config)
        assert count(bm.measure_rsrp, h, beams, sigma2, 3) == 0
        assert count(bm.rsrp_tensor, h, beams) == 0
        assert count(nbl.feedback_images, h, [ssb] * config.c_cells, config.geometry,
                     cb.make_transform_pair(config.geometry), None) == 0
        assert count(bm.decide, bm.measure_rsrp(h, beams, sigma2, 3), h, beams,
                     precoders, sigma2, dims.n_csi) == 1
        assert count(mx.evaluate_drop, config, mx.EvalSettings(n_csi=dims.n_csi),
                     beams, precoders, 3) == 1
    assert count(ad.constant, np.ones(1)) == 1  # the count sees each DiffTensor


# ----------------------------- feedback ----------------------------------

def test_aggregate_feedback_picks_max():
    rsrp = np.zeros((2, 4, 1))
    rsrp[0, 0, 0] = 2.0
    rsrp[1, 3, 0] = 5.0
    rep = bm.aggregate_feedback(rsrp)
    assert rep.b[0] == 1 and rep.m[0] == 3 and rep.p[0] == 5.0


def test_aggregate_feedback_tie_goes_to_cell_zero():
    rsrp = np.ones((2, 2, 1))
    rep = bm.aggregate_feedback(rsrp)
    assert rep.b[0] == 0 and rep.m[0] == 0


def test_aggregate_feedback_partition_sizes():
    rsrp = np.zeros((3, 2, 4))
    rsrp[2, 1, :] = 1.0
    rep = bm.aggregate_feedback(rsrp)
    sizes = [len(rep.users_of_cell(c)) for c in range(3)]
    assert sizes == [0, 0, 4]


def test_aggregate_feedback_scale_invariance():
    rng = np.random.default_rng(8)
    rsrp = rng.random((3, 4, 6))
    a = bm.aggregate_feedback(rsrp)
    b = bm.aggregate_feedback(7.3 * rsrp)
    assert np.array_equal(a.b, b.b) and np.array_equal(a.m, b.m)


def test_aggregate_feedback_rejects_nonfinite():
    rsrp = np.ones((1, 2, 1))
    rsrp[0, 0, 0] = np.inf
    with pytest.raises(DomainError):
        bm.aggregate_feedback(rsrp)


def test_new_users_excluded_from_statistics():
    rsrp = np.zeros((1, 2, 3))
    rsrp[0, 1, :] = 1.0
    rep = bm.aggregate_feedback(rsrp, new_user_mask=[False, True, False])
    assert list(rep.users_of_cell(0)) == [0, 2]
    np.testing.assert_allclose(rep.beam_counts(0), [0.0, 2.0])


# --------------------------- subset selection ----------------------------

def test_apportion_spec_example():
    np.testing.assert_array_equal(bm._apportion(np.array([3.0, 1.0]), 4), [3, 1])


def test_apportion_one_seat_floor():
    np.testing.assert_array_equal(bm._apportion(np.array([99.0, 1.0]), 2), [1, 1])


def test_apportion_tie_to_lowest_index():
    np.testing.assert_array_equal(bm._apportion(np.array([1.0, 1.0, 1.0]), 4),
                                  [2, 1, 1])


def test_apportion_budget_too_small():
    # more reported beams than seats: one seat each for the most-reported,
    # ties to the lower index
    np.testing.assert_array_equal(bm._apportion(np.array([1.0, 1.0, 1.0]), 2),
                                  [1, 1, 0])
    np.testing.assert_array_equal(
        bm._apportion(np.array([1.0, 0.0, 2.0, 1.0, 3.0]), 3), [1, 0, 1, 0, 1])


def _books(geo, l_max, n_cb, b_g):
    window = (-1.01, 1.01)
    ssb = cb.build_dft_ssb(geo, l_max, elevation_window=window)
    csirs = cb.build_dft_csirs(geo, n_cb, b_g, oversampling=2,
                               elevation_window=window)
    return ssb, csirs


def test_subset_single_beam_takes_most_correlated():
    geo = ArrayGeometry(n_x=4, n_y=1, dual_polarized=False)
    ssb, csirs = _books(geo, l_max=4, n_cb=8, b_g=1)
    rsrp = np.zeros((1, 4, 2))
    rsrp[0, 1, :] = 1.0  # both users on beam 1
    rep = bm.aggregate_feedback(rsrp)
    sel = bm.select_csirs_subset(ssb.beams, csirs.precoders, rep, 0, n_csi=3)
    corr = np.abs(np.einsum("t,jts->js", np.conj(ssb.beams[1]),
                            csirs.precoders)).max(axis=1)
    want = list(np.argsort(-corr, kind="stable")[:3])
    assert sel.subset_indices == [int(w) for w in want]


def test_subset_over_budget_serves_the_most_reported_beams():
    # users report 4 distinct beams (counts 1, 2, 1, 3 on beams 0-3) against
    # a budget of 3: beams 3, 1 and the lower-index tie 0 get one precoder
    # each, the most-correlated free one, in beam order
    geo = ArrayGeometry(n_x=4, n_y=1, dual_polarized=False)
    ssb, csirs = _books(geo, l_max=4, n_cb=8, b_g=1)
    beams = [0, 1, 1, 2, 3, 3, 3]
    rsrp = np.zeros((1, 4, len(beams)))
    rsrp[0, beams, np.arange(len(beams))] = 1.0
    rep = bm.aggregate_feedback(rsrp)
    sel = bm.select_csirs_subset(ssb.beams, csirs.precoders, rep, 0, n_csi=3)
    corr = np.abs(np.einsum("it,jts->ijs", np.conj(ssb.beams),
                            csirs.precoders)).max(axis=2)
    want = []
    for beam in (0, 1, 3):
        want.append(next(int(j) for j in np.argsort(-corr[beam], kind="stable")
                         if j not in want))
    assert not sel.fallback and sel.subset_indices == want


def test_subset_fallback_when_cell_empty():
    geo = ArrayGeometry(n_x=4, n_y=1, dual_polarized=False)
    ssb, csirs = _books(geo, l_max=4, n_cb=8, b_g=1)
    rsrp = np.ones((2, 4, 1))
    rsrp[1, 0, 0] = 2.0  # the only user belongs to cell 1
    rep = bm.aggregate_feedback(rsrp)
    sel = bm.select_csirs_subset(ssb.beams, csirs.precoders, rep, 0, n_csi=4)
    assert sel.fallback and sel.subset_indices == [0, 1, 2, 3]


def test_subset_no_duplicates_and_exact_size():
    geo = ArrayGeometry(n_x=4, n_y=2, dual_polarized=False)
    ssb, csirs = _books(geo, l_max=8, n_cb=16, b_g=1)
    rng = np.random.default_rng(0)
    rsrp = rng.random((1, 8, 12))
    rep = bm.aggregate_feedback(rsrp)
    sel = bm.select_csirs_subset(ssb.beams, csirs.precoders, rep, 0, n_csi=8)
    assert len(sel.subset_indices) == 8
    assert len(set(sel.subset_indices)) == 8


def test_subset_rejects_oversized_request():
    geo = ArrayGeometry(n_x=4, n_y=1, dual_polarized=False)
    ssb, csirs = _books(geo, l_max=4, n_cb=8, b_g=1)
    rep = bm.aggregate_feedback(np.ones((1, 4, 1)))
    with pytest.raises(ConfigError):
        bm.select_csirs_subset(ssb.beams, csirs.precoders, rep, 0, n_csi=9)


# ------------------------------ SINR / SE --------------------------------

def test_csirs_sinr_scalar_snr():
    h = np.ones((1, 1, 1, 1, 1, 1), dtype=np.complex128)
    subsets = [np.ones((1, 1, 1), dtype=np.complex128)]
    rec = bm.csirs_sinr(h, subsets, assoc=np.array([0]), sigma2=0.5)
    np.testing.assert_allclose(rec.sinr.value.reshape(()), 2.0, rtol=1e-12)


def test_csirs_sinr_matches_per_stream_solve():
    rng = np.random.default_rng(18)
    h = _crandn(rng, _C, _U, _T, _K, _NR, _NT)
    subsets = [_crandn(rng, _NCSI, _NT, _BG) for _ in range(_C)]
    assoc = rng.integers(0, _C, size=_U)
    sigma2 = 0.7
    want = np.zeros((_U, _NCSI, _T, _K, _BG))
    for u in range(_U):
        for i in range(_NCSI):
            for t in range(_T):
                for k in range(_K):
                    g = [h[c, u, t, k] @ subsets[c][i] for c in range(_C)]
                    r = sigma2 * np.eye(_NR) + sum(gc @ np.conj(gc.T) for gc in g)
                    for s in range(_BG):
                        v = g[assoc[u]][:, s]
                        r_other = r - np.outer(v, np.conj(v))
                        want[u, i, t, k, s] = np.real(
                            np.conj(v) @ np.linalg.solve(r_other, v))
    got = bm.csirs_sinr(h, subsets, assoc, sigma2).sinr.value
    assert got.shape == want.shape
    np.testing.assert_allclose(got.real, want, rtol=1e-10)


def test_resource_sinr_matches_csirs_sinr_at_each_users_resource():
    rng = np.random.default_rng(20)
    h = _crandn(rng, _C, _U, _T, _K, _NR, _NT)
    subsets = [_crandn(rng, _NCSI, _NT, _BG) for _ in range(_C)]
    assoc = rng.integers(0, _C, size=_U)
    resource = rng.integers(0, _NCSI, size=_U)
    precoders = bm.gather_per_user(subsets, np.tile(resource, (_C, 1)))
    assert precoders.shape == (_C, _U, _NT, _BG)
    got = bm.resource_sinr(h, precoders, assoc, 0.7)
    full = bm.csirs_sinr(h, subsets, assoc, 0.7).sinr.value.real  # (U, N_CSI, T, K, B_g)
    np.testing.assert_allclose(got.value, full[np.arange(_U), resource], rtol=1e-12)
    se = bm.stream_se(got).value.real
    want, _ = bm.achievable_se(full)
    np.testing.assert_allclose(se, want[np.arange(_U), resource], rtol=1e-12)


def _one_interferer_sinr(v, u, sigma2):
    """Closed form v^H (sigma2 I + u u^H)^-1 v, free of cancellation."""
    v_perp = v - u * (np.vdot(u, v) / np.vdot(u, u))
    nv, nu, nvp = (float(np.vdot(a, a).real) for a in (v, u, v_perp))
    return (sigma2 * nv + nu * nvp) / (sigma2 * (sigma2 + nu))


def _interferers_sinr(v, u, sigma2):
    """Closed form v^H (sigma2 I + U U^H)^-1 v for U (N, K), K < N, as a sum of
    non-negative terms: U = Q1 R1, R1 R1^H = E diag(lam) E^H, Q2 spans the rest.
    """
    q, r = np.linalg.qr(u, mode="complete")
    k = u.shape[1]
    lam, e = np.linalg.eigh(r[:k] @ np.conj(r[:k].T))
    inside = np.abs(np.conj(e.T) @ (np.conj(q[:, :k].T) @ v)) ** 2
    outside = np.abs(np.conj(q[:, k:].T) @ v) ** 2
    return float((inside / (sigma2 + lam)).sum() + outside.sum() / sigma2)


def test_csirs_sinr_accurate_from_low_to_high_snr():
    # cell 0 serves the user along v, cell 1 interferes along u (N_R = 2)
    v, u = np.array([1.0 + 0.5j, -0.3 + 0.2j]), np.array([0.4 - 0.1j, 0.9 + 0.7j])
    h = np.zeros((2, 1, 1, 1, 2, 1), dtype=np.complex128)
    h[0, 0, 0, 0, :, 0], h[1, 0, 0, 0, :, 0] = v, u
    sub = np.ones((1, 1, 1), dtype=np.complex128)
    for sigma2 in 10.0 ** np.arange(2, -13, -1):
        got = bm.csirs_sinr(h, [sub, sub], np.array([0]), sigma2).sinr.value
        np.testing.assert_allclose(got.real.reshape(()), _one_interferer_sinr(v, u, sigma2),
                                   rtol=1e-12, err_msg=f"sigma2={sigma2}")
        assert got.imag.reshape(()) == 0.0
    # N_R = 4: cell 0 serves along v, cells 1-3 interfere along U's columns
    rng = np.random.default_rng(358)
    v4, u4 = _crandn(rng, 4), _crandn(rng, 4, 3)
    h4 = np.zeros((4, 1, 1, 1, 4, 1), dtype=np.complex128)
    h4[0, 0, 0, 0, :, 0] = v4
    h4[1:, 0, 0, 0, :, 0] = u4.T
    assert _interferers_sinr(v, u[:, None], 0.3) == pytest.approx(
        _one_interferer_sinr(v, u, 0.3), rel=1e-14)
    for sigma2 in 10.0 ** np.arange(2, -13, -1):
        got = bm.csirs_sinr(h4, [sub] * 4, np.array([0]), sigma2).sinr.value
        np.testing.assert_allclose(got.real.reshape(()), _interferers_sinr(v4, u4, sigma2),
                                   rtol=1e-12, err_msg=f"N_R=4, sigma2={sigma2}")
        assert got.imag.reshape(()) == 0.0


@pytest.mark.parametrize("disaggregated", [False, True])
@pytest.mark.parametrize("n_rx", [1, 2, 3])
def test_csirs_sinr_gradients_match_finite_differences(n_rx, disaggregated):
    # The CSI-RS stage's gradient path: resource_sinr on precoders gathered
    # from the per-cell DiffTensors.  Two cells serving users 0 and 1, 2; in
    # disaggregated mode cell 1 is held fixed by stop_gradient, as
    # nbl.forward_model does.
    rng = np.random.default_rng(50 + n_rx)
    h = _crandn(rng, 2, 3, 1, 2, n_rx, 4)
    subsets = [_crandn(rng, 2, 4, 2) for _ in range(2)]
    weights = ad.constant(rng.uniform(0.5, 1.5, size=(3, 1, 2, 2)))
    assoc = np.array([0, 1, 1])
    resource = np.tile([1, 0, 1], (2, 1))  # (C, U): each user's resource

    def loss(b0, b1):
        if disaggregated:
            b1 = ad.stop_gradient(b1)
        precoders = bm.gather_per_user([b0, b1], resource)
        s = ad.real(ad.mul(bm.resource_sinr(h, precoders, assoc, 0.3), weights))
        while s.value.ndim:
            s = ad.sum_axis(s, axis=0)
        return s

    if disaggregated:
        assert_grads_match(lambda b0: loss(b0, ad.constant(subsets[1])), subsets[:1])
        assert not analytic_gradients(loss, subsets)[1].any()
    else:
        assert_grads_match(loss, subsets)


# Frozen reference: the per-cell CSI-RS product, N_CSI thin GEMMs per cell
# joined by a concat, that the one all-cell GEMM replaced.

def _frozen_per_cell_csirs_sinr(h, subsets, assoc, sigma2):
    hv = np.asarray(h, dtype=np.complex128)
    c_cells, n_users, t_slots, k_sub, n_rx, n_t = hv.shape
    assoc = np.asarray(assoc, dtype=np.intp)
    h_rows = hv.reshape(c_cells, -1, n_t)  # (C, U*T*K*N_R, NT)
    g_cells = []
    for c in range(c_cells):
        bc = ad.as_tensor(subsets[c])  # (N_CSI, NT, B_g)
        prod = ad.matmul(ad.constant(h_rows[c]), bc)  # (N_CSI, U*T*K*N_R, B_g)
        n_csi, _, b_g = prod.shape
        g_cells.append(ad.reshape(prod, (n_csi, n_users, t_slots, k_sub, n_rx, b_g)))
    x = ad.concat(g_cells, axis=-1)  # (N_CSI, U, T, K, N_R, C*B_g)
    own = (assoc[:, None] * b_g + np.arange(b_g))[:, None, None, :]
    return ad.swapaxes(ad.lmmse_sinr(x, own, sigma2), 0, 1)


@pytest.mark.parametrize("c_cells,b_g", [(_C, _BG), (1, _BG), (3, 1), (1, 1)])
def test_csirs_sinr_matches_frozen_per_cell_product(c_cells, b_g):
    rng = np.random.default_rng(60 + 10 * c_cells + b_g)
    n_rx = 2 * b_g  # keeps N_R <= C * B_g, the solve the CSI-RS stage uses
    h = _crandn(rng, c_cells, _U, _T, _K, n_rx, _NT)
    subsets = [_crandn(rng, _NCSI, _NT, b_g) for _ in range(c_cells)]
    assoc = rng.integers(0, c_cells, size=_U)
    resource = rng.integers(0, _NCSI, size=_U)
    weights = rng.uniform(0.5, 1.5, size=(_U, _T, _K, b_g))
    frozen = c_cells - 1  # held fixed by stop_gradient, as a disaggregated step does

    got = bm.csirs_sinr(h, subsets, assoc, 0.3).sinr.value
    want = _frozen_per_cell_csirs_sinr(h, subsets, assoc, 0.3).value
    assert got.shape == (_U, _NCSI, _T, _K, b_g)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    # the gradient path: resource_sinr at each user's resource against the
    # frozen product's differentiable sweep read at the same entries
    def run(sinr_fn):
        tape = ad.Tape()
        params = [tape.parameter(f"b{c}", v) for c, v in enumerate(subsets)]
        used = [ad.stop_gradient(p) if c == frozen and c_cells > 1 else p
                for c, p in enumerate(params)]
        sinr = sinr_fn(used)  # (U, T, K, B_g)
        s = ad.mul(sinr, ad.constant(weights))
        while s.value.ndim:
            s = ad.sum_axis(s, axis=0)
        ad.backward(ad.real(s))
        return sinr.value, [p.grad for p in params]

    got, got_grads = run(lambda used: bm.resource_sinr(
        h, bm.gather_per_user(used, np.tile(resource, (c_cells, 1))), assoc, 0.3))
    want, want_grads = run(lambda used: ad.select_cells(ad.swapaxes(
        _frozen_per_cell_csirs_sinr(h, used, assoc, 0.3), 0, 1), resource))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    for c, (g, w) in enumerate(zip(got_grads, want_grads)):
        if c == frozen and c_cells > 1:
            assert g is None and w is None
        else:
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-14 * np.abs(w).max())


@pytest.mark.parametrize("blocks", ["one", "several", "partial"])
@pytest.mark.parametrize("c_cells,b_g,n_rx", [(3, 2, 2), (2, 1, 2), (1, 2, 4), (1, 1, 2)])
def test_csirs_sinr_matches_frozen_differentiable_sweep(c_cells, b_g, n_rx, blocks,
                                                        monkeypatch):
    # M = C*B_g against N = N_R covers both kernel branches (M >= N for the
    # first two cases, M < N for the last two); the block size splits the
    # N_CSI*U*T*K = 24 matrices into exactly one block, three full blocks,
    # or three blocks and a partial one
    monkeypatch.setattr(ad, "_SINR_BLOCK", {"one": 24, "several": 8, "partial": 7}[blocks])
    rng = np.random.default_rng(70 + 10 * c_cells + b_g + n_rx)
    h = _crandn(rng, c_cells, 3, 1, 2, n_rx, _NT)
    subsets = [_crandn(rng, 4, _NT, b_g) for _ in range(c_cells)]
    assoc = rng.integers(0, c_cells, size=3)
    got = bm.csirs_sinr(h, subsets, assoc, 0.3).sinr
    want = frozen_csirs_sinr(h, subsets, assoc, 0.3)
    np.testing.assert_array_equal(got.value, want.value)
    assert got.value.shape == (3, 4, 1, 2, b_g)
    assert np.swapaxes(got.value, 0, 1).flags.c_contiguous  # stream_se's layout


@pytest.mark.parametrize("blocks", [24, 7])
def test_csirs_sinr_runs_the_kernel_on_its_stack_without_a_copy(blocks, monkeypatch):
    # the sweep's batch-last stack reaches lmmse_sinr_array as a moved view,
    # and every block the kernel reads is a view of that stack
    monkeypatch.setattr(ad, "_SINR_BLOCK", blocks)
    stacks, seen = [], []
    entry, kernel = ad.lmmse_sinr_array, ad._sinr_block

    def entry_spy(x, *args):
        stacks.append(x)
        return entry(x, *args)

    def kernel_spy(xt, *args):
        seen.append(xt)
        return kernel(xt, *args)

    monkeypatch.setattr(ad, "lmmse_sinr_array", entry_spy)
    monkeypatch.setattr(ad, "_sinr_block", kernel_spy)
    rng = np.random.default_rng(75)
    h = _crandn(rng, 2, 3, 1, 2, 2, _NT)
    subsets = [_crandn(rng, 4, _NT, 2) for _ in range(2)]
    bm.csirs_sinr(h, subsets, np.array([0, 1, 1]), 0.3)
    assert len(stacks) == 1 and len(seen) == -(-24 // blocks)
    assert all(np.shares_memory(b, stacks[0]) for b in seen)


def test_csirs_sinr_subset_count_mismatch():
    h = np.ones((2, 1, 1, 1, 1, 2), dtype=np.complex128)
    with pytest.raises(ShapeError):
        bm.csirs_sinr(h, [np.ones((1, 2, 1))], assoc=np.array([0]), sigma2=1.0)


def _random_sinr_instance(rng, n_rx=4, n_int=3):
    v = rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx)
    b = rng.standard_normal((n_rx, n_int)) + 1j * rng.standard_normal((n_rx, n_int))
    r = np.outer(v, np.conj(v)) + b @ np.conj(b.T) + 0.1 * np.eye(n_rx)
    return v, r


def test_sinr_matrix_inversion_lemma_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        v, r = _random_sinr_instance(rng)
        q = float(np.real(np.conj(v) @ np.linalg.inv(r) @ v))
        lhs = q / (1.0 - q)
        rhs = float(np.real(np.conj(v) @ np.linalg.inv(r - np.outer(v, np.conj(v))) @ v))
        assert abs(lhs - rhs) / abs(rhs) < 1e-8


def test_orthogonal_interferer_leaves_sinr_unchanged():
    h = np.zeros((2, 1, 1, 1, 2, 2), dtype=np.complex128)
    h[0, 0, 0, 0] = [[1.0, 0.0], [0.0, 0.0]]  # desired along rx antenna 0
    h[1, 0, 0, 0] = [[0.0, 0.0], [0.0, 1.0]]  # interferer along rx antenna 1
    sub = np.zeros((1, 2, 1), dtype=np.complex128)
    sub[0, 0, 0] = 1.0
    base = bm.csirs_sinr(h * np.array([1, 0]).reshape(2, 1, 1, 1, 1, 1),
                         [sub, sub], np.array([0]), sigma2=0.3)
    with_int = bm.csirs_sinr(h, [sub, sub], np.array([0]), sigma2=0.3)
    d = abs(float(base.sinr.value.real.reshape(()))
            - float(with_int.sinr.value.real.reshape(())))
    assert d < 1e-9


def test_sinr_monotone_in_noise():
    rng = np.random.default_rng(2)
    h = (rng.standard_normal((1, 1, 1, 1, 2, 4))
         + 1j * rng.standard_normal((1, 1, 1, 1, 2, 4)))
    sub = rng.standard_normal((2, 4, 1)) + 1j * rng.standard_normal((2, 4, 1))
    last = -np.inf
    for sigma2 in [10.0, 1.0, 0.1, 0.01, 1e-4]:
        rec = bm.csirs_sinr(h, [sub], np.array([0]), sigma2)
        s = float(rec.sinr.value.real.max())
        assert s > last
        last = s


def test_extra_interfering_cell_never_raises_sinr():
    rng = np.random.default_rng(3)
    h = (rng.standard_normal((2, 2, 1, 1, 3, 4))
         + 1j * rng.standard_normal((2, 2, 1, 1, 3, 4)))
    sub = rng.standard_normal((2, 4, 2)) + 1j * rng.standard_normal((2, 4, 2))
    solo = bm.csirs_sinr(h[:1], [sub], np.array([0, 0]), 0.5)
    duo = bm.csirs_sinr(h, [sub, sub], np.array([0, 0]), 0.5)
    assert np.all(duo.sinr.value.real <= solo.sinr.value.real + 1e-12)


def test_achievable_se_constant_sinr():
    se, _ = bm.achievable_se(np.full((1, 1, 1, 1, 1), 3.0))
    np.testing.assert_allclose(se, [[2.0]])


def test_achievable_se_resource_choice():
    sinr = np.zeros((1, 2, 1, 1, 1))
    sinr[0, 0] = 1.0   # SE 1.0
    sinr[0, 1] = 4.6569  # SE ~2.5
    _, chosen = bm.achievable_se(sinr)
    assert chosen[0] == 1


def test_achievable_se_mean_then_log():
    sinr = np.array([1.0, 3.0]).reshape(1, 1, 1, 2, 1)
    se, _ = bm.achievable_se(sinr)
    np.testing.assert_allclose(se, np.log2(3.0), rtol=1e-12)


def test_achievable_se_tie_to_lowest():
    _, chosen = bm.achievable_se(np.ones((1, 3, 1, 1, 1)))
    assert chosen[0] == 0


@pytest.mark.parametrize("t_slots", [1, 2])
@pytest.mark.parametrize("n_s", [1, 2, 4])
def test_achievable_se_matches_frozen_autodiff_se_bit_for_bit(n_s, t_slots):
    # K = 16 puts the one-stream sum over K on numpy's pairwise path and
    # S = 4 the stream sum, both of which a float64 sum rounds differently;
    # SINRs over six decades, the stack as csirs_sinr lays it out
    rng = np.random.default_rng(10 * n_s + t_slots)
    raw = rng.exponential(1.0, (7, 5, t_slots, 16, n_s)) * 10.0 ** rng.uniform(
        -3.0, 3.0, (7, 5, 1, 1, 1))
    for sinr in (np.swapaxes(raw, 0, 1), np.ascontiguousarray(np.swapaxes(raw, 0, 1))):
        se, chosen = bm.achievable_se(sinr)
        want_se, want_chosen = frozen_achievable_se(sinr)
        assert se.dtype == np.float64 and se.tobytes() == want_se.tobytes()
        assert np.array_equal(chosen, want_chosen)


def test_effective_sinr_values():
    np.testing.assert_allclose(bm.effective_sinr([1.0]), [0.0], atol=1e-12)
    np.testing.assert_allclose(bm.effective_sinr([2.0]), [10.0 * np.log10(3.0)])
    assert bm.effective_sinr([0.0])[0] == -np.inf
    with pytest.raises(ConfigError):
        bm.effective_sinr([-0.1])


def test_effective_sinr_inverts_single_stream_se():
    sinr = np.full((1, 1, 1, 1, 1), 5.0)
    se, _ = bm.achievable_se(sinr)
    back = bm.effective_sinr(se.reshape(-1))
    np.testing.assert_allclose(back, [10.0 * np.log10(5.0)], rtol=1e-12)
