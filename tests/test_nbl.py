"""End-to-end learning: targets, losses, generators, training, checkpoints."""
import numpy as np
import pytest

from beamweaver import autodiff as ad
from beamweaver import beam_mgmt as bm
from beamweaver import channel as ch
from beamweaver import codebook as cb
from beamweaver import metrics as mx
from beamweaver import nbl
from beamweaver.autodiff import Tape
from beamweaver.errors import DivergenceError, FormatError, ShapeError

from conftest import assert_grads_match, frozen_csirs_sinr, frozen_rsrp_tensor

FULL = (-1.01, 1.01)


def _geo():
    return ch.ArrayGeometry(n_x=4, n_y=4, dual_polarized=True)


def _config(**over):
    base = dict(c_cells=1, k_subcarriers=2, n_rx=2, cluster_count=2,
                rays_per_cluster=3, user_count_range=(2, 3), geometry=_geo())
    base.update(over)
    return ch.ScenarioConfig(**base)


def _dims(**over):
    base = dict(l_max=8, n_cb=4, n_csi=2, b_g=2, b_phase=None,
                elevation_window=FULL)
    base.update(over)
    return nbl.NblDims(**base)


def _dataset(cfg, dims, n_samples=1, seed=11, sigma2=None):
    prior = [cb.build_dft_ssb(cfg.geometry, dims.l_max, dims.elevation_window)
             for _ in range(cfg.c_cells)]
    if sigma2 is None:
        h = ch.generate_channels(cfg, seed=seed).values
        sigma2 = float(np.mean(np.abs(h) ** 2))
    return nbl.build_dataset(cfg, prior, n_samples, seed, sigma2), sigma2


# ------------------------------- targets ---------------------------------

def test_targets_diagonal_channel():
    h = np.zeros((1, 1, 1, 1, 2, 2), complex)
    h[0, 0, 0, 0] = np.diag([1.0, 2.0])
    got = nbl.compute_targets(h, np.array([0]), sigma2=1.0)
    assert got[0] == pytest.approx(np.log2(5.0) + np.log2(2.0))


def test_targets_zero_channel():
    h = np.zeros((2, 3, 1, 2, 2, 4), complex)
    np.testing.assert_array_equal(
        nbl.compute_targets(h, np.zeros(3, int), 0.5), np.zeros(3))


def test_targets_rank_one_single_term():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    h = np.outer(u, np.conj(v)).reshape(1, 1, 1, 1, 3, 4)
    s2 = np.linalg.norm(u) ** 2 * np.linalg.norm(v) ** 2
    got = nbl.compute_targets(h, np.array([0]), sigma2=0.25)
    assert got[0] == pytest.approx(np.log2(1.0 + s2 / 0.25))


def test_targets_use_serving_cell():
    h = np.zeros((2, 1, 1, 1, 1, 1), complex)
    h[0, 0, 0, 0, 0, 0] = 1.0
    h[1, 0, 0, 0, 0, 0] = 3.0
    a = nbl.compute_targets(h, np.array([0]), 1.0)
    b = nbl.compute_targets(h, np.array([1]), 1.0)
    assert a[0] == pytest.approx(1.0) and b[0] == pytest.approx(np.log2(10.0))


# -------------------------------- losses ---------------------------------

def test_e2e_loss_value():
    pred = ad.constant(np.array([2.0, 4.0]))
    assert float(nbl.e2e_loss(np.array([1.0, 3.0]), pred).value.real) == pytest.approx(1.0)


def test_e2e_loss_zero_at_targets():
    pred = ad.constant(np.array([1.5, -2.0]))
    assert float(nbl.e2e_loss(np.array([1.5, -2.0]), pred).value.real) == 0.0


def test_e2e_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        nbl.e2e_loss(np.zeros(3), ad.constant(np.zeros(2)))


def test_e2e_loss_gradient_matches_fd():
    targets = np.array([0.5, -1.0, 2.0])

    def loss_fn(z):
        return nbl.e2e_loss(targets, ad.real(z))

    rng = np.random.default_rng(1)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert_grads_match(loss_fn, [z])


def test_ssb_alignment_loss_value():
    best = ad.constant(np.array([1.0, 3.0]))
    got = float(nbl.ssb_alignment_loss(best, sigma2=1.0).value.real)
    assert got == pytest.approx(-(np.log2(2.0) + np.log2(4.0)) / 2.0)


def test_load_balance_loss_zero_when_uniform():
    c_cells, n_users = 3, 5
    rsrp = np.ones((c_cells, n_users))  # every cell reaches every user equally
    got = float(nbl.load_balance_loss(ad.constant(rsrp)).value.real)
    assert got == pytest.approx(0.0, abs=1e-15)


def test_load_balance_loss_one_cell_captures_all():
    c_cells, n_users = 3, 5
    rsrp = np.full((c_cells, n_users), 1e-12)
    rsrp[1, :] = 1.0  # cell 1's strongest beam dominates every user
    got = float(nbl.load_balance_loss(ad.constant(rsrp)).value.real)
    want = (1.0 - 1.0 / 3) ** 2 + 2 * (1.0 / 3) ** 2
    assert got == pytest.approx(want, rel=1e-6)


def test_load_balance_loss_gradient_matches_fd():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))

    def loss_fn(p):
        return nbl.load_balance_loss(ad.abs2(p))

    assert_grads_match(loss_fn, [x], rtol=1e-5)


# ----------------------------- forward model -----------------------------

def test_forward_pin_replays_selections():
    cfg = _config()
    dims = _dims()
    data, sigma2 = _dataset(cfg, dims)
    tape = Tape()
    gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
    ssb_dt, csirs_dt = gen.generate(data[0].obsc)
    fw = nbl.forward_model(data[0].h, ssb_dt, csirs_dt, sigma2, dims.n_csi,
                           new_user_mask=data[0].new_user_mask)
    # perturb the parameters hard; the pinned run must keep the selections
    rng = np.random.default_rng(2)
    for p in tape.parameters.values():
        p.value = p.value + 0.5 * (rng.standard_normal(p.value.shape)
                                   + 1j * rng.standard_normal(p.value.shape))
    ssb2, csirs2 = gen.generate(data[0].obsc)
    fw2 = nbl.forward_model(data[0].h, ssb2, csirs2, sigma2, dims.n_csi,
                            pin=fw.pin)
    np.testing.assert_array_equal(fw2.pin.chosen, fw.pin.chosen)
    assert fw2.pin.subset_indices == fw.pin.subset_indices
    np.testing.assert_array_equal(fw2.pin.report.b, fw.pin.report.b)


def _full_graph_forward_model(h, ssb_dt, csirs_dt, sigma2, n_csi, pin=None,
                              new_user_mask=None, disaggregated_cell=None):
    """Frozen reference: forward_model as it was before it split decisions
    from the graph, differentiating every beam and every CSI-RS resource.

    ``pin`` is its own (report, subsets, chosen) triple.  Returns (pred,
    best_rsrp, rsrp (C, L, U), pin).
    """
    h = np.asarray(h, dtype=np.complex128)
    c_cells, n_users = h.shape[:2]
    books = [(s.value, cs.value) for s, cs in zip(ssb_dt, csirs_dt)]
    if disaggregated_cell is not None:
        ssb_dt = [s if c == disaggregated_cell else ad.stop_gradient(s)
                  for c, s in enumerate(ssb_dt)]
        csirs_dt = [s if c == disaggregated_cell else ad.stop_gradient(s)
                    for c, s in enumerate(csirs_dt)]
    rsrp = frozen_rsrp_tensor(h, ssb_dt)
    if pin is None:
        report = bm.aggregate_feedback(rsrp.value.real, new_user_mask)
        subset_idx = [bm.select_csirs_subset(*books[c], report, c,
                                             n_csi).subset_indices
                      for c in range(c_cells)]
    else:
        report, subset_idx, _ = pin
    subsets = [ad.take(csirs_dt[c], np.asarray(subset_idx[c]), axis=0)
               for c in range(c_cells)]
    se = bm.stream_se(frozen_csirs_sinr(h, subsets, report.b, sigma2))  # (U, N_CSI)
    chosen = np.argmax(se.value.real, axis=1) if pin is None else pin[2]
    pred = ad.select_cells(ad.swapaxes(se, 0, 1), chosen)
    flat = ad.reshape(rsrp, (c_cells * report.l_max, n_users))
    best = ad.select_cells(flat, report.b * report.l_max + report.m)
    return pred, best, rsrp, (report, subset_idx, chosen)


def _full_graph_load_balance_loss(rsrp_dt):
    """Frozen reference: load_balance_loss on the (C, L, U) RSRP tensor."""
    c_cells, l_max, n_users = rsrp_dt.shape
    flat = ad.reshape(rsrp_dt, (c_cells * l_max, n_users))
    vals = rsrp_dt.value.real
    per_cell = []
    for c in range(c_cells):
        idx = c * l_max + np.argmax(vals[c], axis=0)
        per_cell.append(ad.reshape(ad.real(ad.select_cells(flat, idx)),
                                   (1, n_users)))
    r = ad.concat(per_cell, axis=0)
    share = ad.div(r, ad.sum_axis(r, axis=0, keepdims=True))
    load = ad.mean_axis(share, axis=1)
    d = ad.sub(load, ad.constant(np.full(c_cells, 1.0 / c_cells)))
    return ad.sum_axis(ad.mul(d, d), axis=0)


def _decide(h, ssb, csirs, sigma2, n_csi, new_user_mask):
    """The rollout's decisions: ``beam_mgmt.decide`` on noise-free RSRP."""
    return bm.decide(bm.rsrp_tensor(h, ssb), h, ssb, csirs, sigma2,
                     n_csi, new_user_mask)


def _rollout_loss(full_graph, sample, ssb, csirs, sigma2, n_csi, ssb_weight,
                  balance_weight, cell=None, pin=None):
    """One drop's training loss from either forward model, and its pin."""
    kw = dict(pin=pin, new_user_mask=sample.new_user_mask,
              disaggregated_cell=cell)
    if full_graph:
        pred, best, rsrp, pin = _full_graph_forward_model(
            sample.h, ssb, csirs, sigma2, n_csi, **kw)
        balance = lambda: _full_graph_load_balance_loss(rsrp)
    else:
        fw = nbl.forward_model(sample.h, ssb, csirs, sigma2, n_csi, **kw)
        pred, best, pin = fw.pred, fw.best_rsrp, fw.pin
        balance = lambda: nbl.load_balance_loss(fw.cell_rsrp)
    loss = ad.add(nbl.e2e_loss(sample.targets, pred),
                  ad.scale(nbl.ssb_alignment_loss(best, sigma2), ssb_weight))
    if balance_weight:
        loss = ad.add(loss, ad.scale(balance(), balance_weight))
    return loss, pin


@pytest.mark.parametrize("case", ["direct", "neural", "disaggregated",
                                  "balance", "pin", "idle-cell"])
def test_forward_model_matches_the_full_graph(case):
    cells = 3 if case in ("disaggregated", "idle-cell") else 2
    cfg = _config(c_cells=cells, user_count_range=(2, 4))
    dims = _dims(n_cb=6, n_csi=3)
    data, sigma2 = _dataset(cfg, dims, n_samples=6)
    tape = Tape()
    if case == "neural":
        gen = nbl.NeuralGenerator(tape, cells, dims, n_pol=2, seed=2)
        generate = lambda o: gen.generate_for(o, cfg.geometry)
    else:
        gen = nbl.DirectGenerator(tape, cells, cfg.geometry, dims)
        generate = gen.generate
        rng = np.random.default_rng(8)  # off the DFT start, so no ties
        for p in tape.parameters.values():
            p.value = p.value + 0.05 * (rng.standard_normal(p.value.shape)
                                        + 1j * rng.standard_normal(p.value.shape))
    if case == "idle-cell":
        # only drops in which some cell is nobody's serving cell
        books = [[t.value for t in b] for b in generate(None)]
        data = [s for s in data
                if np.bincount(_decide(s.h, *books, sigma2, dims.n_csi,
                                       s.new_user_mask).report.b,
                               minlength=cells).min() == 0]
        assert data
    ssb_weight = 0.3
    balance_weight = 0.5 if case in ("balance", "idle-cell") else 0.0
    cell = 1 if case == "disaggregated" else None
    pins = {True: [None] * len(data), False: [None] * len(data)}
    if case == "pin":
        # record the decisions, then move the codebooks far enough to change
        # some of them; the replay must keep the recorded ones.  The balance
        # loss stays off: a replay also keeps each cell's strongest beam,
        # which the full-graph model took again from the current values.
        for full_graph in (True, False):
            for i, s in enumerate(data):
                pins[full_graph][i] = _rollout_loss(
                    full_graph, s, *generate(s.obsc), sigma2, dims.n_csi,
                    ssb_weight, 0.0)[1]
        rng = np.random.default_rng(9)
        for p in tape.parameters.values():
            p.value = p.value + 0.5 * (rng.standard_normal(p.value.shape)
                                       + 1j * rng.standard_normal(p.value.shape))
        ssb, csirs = generate(None)
        moved = [_decide(s.h, [t.value for t in ssb], [t.value for t in csirs],
                         sigma2, dims.n_csi, s.new_user_mask) for s in data]
        assert any(m.subset_indices != p.subset_indices
                   or not np.array_equal(m.chosen, p.chosen)
                   for m, p in zip(moved, pins[False]))
    for i, s in enumerate(data):
        results = {}
        for full_graph in (True, False):
            tape.zero_grad()
            loss, _ = _rollout_loss(full_graph, s, *generate(s.obsc), sigma2,
                                    dims.n_csi, ssb_weight, balance_weight,
                                    cell, pins[full_graph][i])
            ad.backward(loss)
            results[full_graph] = (float(loss.value.real),
                                   {k: p.grad for k, p in tape.parameters.items()})
        (want_loss, want), (got_loss, got) = results[True], results[False]
        assert got_loss == pytest.approx(want_loss, rel=1e-12, abs=0)
        for name, w in want.items():
            # a parameter the full graph reaches gets a gradient, even an
            # all-zero one: Adam moves it by its momentum
            assert (got[name] is None) == (w is None), name
            if w is not None:
                np.testing.assert_allclose(got[name], w, rtol=1e-12,
                                           atol=1e-12 * np.abs(w).max(),
                                           err_msg=name)


def test_direct_generator_starts_at_dft():
    cfg = _config()
    dims = _dims()
    tape = Tape()
    gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
    ssb_dt, csirs_dt = gen.generate()
    want = cb.build_dft_ssb(cfg.geometry, dims.l_max, dims.elevation_window).beams
    np.testing.assert_allclose(ssb_dt[0].value, want, atol=1e-10)
    assert csirs_dt[0].shape == (dims.n_cb, cfg.geometry.n_elements, dims.b_g)


def _total_loss(sample, generate, sigma2, n_csi, ssb_weight, disaggregated_cell=None,
                balance_weight=0.0):
    """Per-drop reference: one drop's loss, with codebooks generated from its
    own images alone."""
    ssb_dt, csirs_dt = generate(sample.obsc)
    return nbl._drop_loss(sample, ssb_dt, csirs_dt, sigma2, n_csi, ssb_weight,
                          disaggregated_cell, balance_weight)


def test_neural_with_zero_head_matches_direct_dft():
    cfg = _config()
    dims = _dims()
    data, sigma2 = _dataset(cfg, dims)
    t_dir, t_net = Tape(), Tape()
    direct = nbl.DirectGenerator(t_dir, cfg.c_cells, cfg.geometry, dims)
    net = nbl.NeuralGenerator(t_net, cfg.c_cells, dims, n_pol=2)
    for name in ("deconv2_w", "deconv2_b"):  # output head off => delta 0
        t_net.parameters[name].value = np.zeros_like(t_net.parameters[name].value)
    l_dir = _total_loss(data[0], direct.generate, sigma2, dims.n_csi, 0.0)
    l_net = _total_loss(
        data[0], lambda o: net.generate_for(o, cfg.geometry), sigma2,
        dims.n_csi, 0.0)
    np.testing.assert_allclose(l_net.value, l_dir.value, rtol=1e-12)


def _random_obsc(geo, dims, cells, seed):
    pair = cb.make_transform_pair(geo)
    rng = np.random.default_rng(seed)
    shape = (dims.l_max * 2, pair.n_xo + 1, pair.n_yo + 1)
    return [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(cells)]


def _books_loss(books, weights):
    """A real scalar that depends on every entry of every codebook tensor."""
    terms = [ad.sum_axis(ad.reshape(ad.real(ad.mul(t, ad.constant(w))), (-1,)), 0)
             for t, w in zip(books, weights)]
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return total


@pytest.mark.parametrize("b_phase", [None, 2])
def test_neural_generate_for_on_a_stacked_batch_matches_per_drop_calls(b_phase):
    cells, n_drops = 2, 3
    geo, dims = _geo(), _dims(b_phase=b_phase)
    tape = Tape()
    gen = nbl.NeuralGenerator(tape, cells, dims, n_pol=2, seed=1)
    drops = [_random_obsc(geo, dims, cells, seed) for seed in range(n_drops)]
    ssb, csirs = gen.generate_for([np.stack(im) for im in zip(*drops)], geo)
    n_t = geo.n_elements
    assert [t.shape for t in ssb] == [(n_drops, dims.l_max, n_t)] * cells
    assert [t.shape for t in csirs] == [(n_drops, dims.n_cb, n_t, dims.b_g)] * cells
    rng = np.random.default_rng(7)
    weights = [rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape)
               for t in ssb + csirs]
    ad.backward(_books_loss(ssb + csirs, weights))
    got = {k: g.copy() for k, g in tape.gradients().items()}
    tape.zero_grad()
    for i, obsc in enumerate(drops):
        one_ssb, one_csirs = gen.generate_for(obsc, geo)
        # a one-drop input keeps the unbatched shapes
        assert [t.shape for t in one_ssb] == [(dims.l_max, n_t)] * cells
        assert [t.shape for t in one_csirs] == [(dims.n_cb, n_t, dims.b_g)] * cells
        for batched, one in zip(ssb + csirs, one_ssb + one_csirs):
            np.testing.assert_allclose(batched.value[i], one.value, rtol=1e-12,
                                       atol=1e-12)
        ad.backward(_books_loss(one_ssb + one_csirs, [w[i] for w in weights]))
    for name, want in tape.gradients().items():
        assert np.abs(want).max() > 0, name
        np.testing.assert_allclose(got[name], want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max(), err_msg=name)
    # a leading drop axis of length 1 is kept
    ssb1, csirs1 = gen.generate_for([o[None] for o in drops[0]], geo)
    assert ssb1[0].shape == (1, dims.l_max, n_t)
    assert csirs1[0].shape == (1, dims.n_cb, n_t, dims.b_g)


def _counting(fn, calls):
    def wrapped(*args):
        calls.append(args)
        return fn(*args)
    return wrapped


def test_train_generates_once_per_step_and_per_validation_chunk():
    cfg = _config(c_cells=2)
    dims = _dims()
    data, sigma2 = _dataset(cfg, dims, n_samples=8)
    tape = Tape()
    gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
    calls = []
    nbl.train(data, _counting(gen.generate, calls), tape, sigma2, dims.n_csi,
              epochs=2, lr=1e-3, batch_size=2, seed=3, val_fraction=3 / 8)
    # per epoch: 5 training drops in steps of 2, 2, 1; 3 validation drops in
    # chunks of 2, 1; each call gets every cell's images with a drop axis
    leading = [[o.shape[0] for o in obsc] for (obsc,) in calls]
    assert leading == [[2, 2], [2, 2], [1, 1], [2, 2], [1, 1]] * 2


def test_neural_network_runs_once_per_step_and_per_validation_chunk():
    cfg = _config(c_cells=2)
    dims = _dims()
    data, sigma2 = _dataset(cfg, dims, n_samples=5)
    tape = Tape()
    gen = nbl.NeuralGenerator(tape, cfg.c_cells, dims, n_pol=2)
    calls = []
    gen._network = _counting(gen._network, calls)
    nbl.train(data, lambda o: gen.generate_for(o, cfg.geometry), tape, sigma2,
              dims.n_csi, epochs=1, lr=1e-3, batch_size=2, seed=3,
              val_fraction=0.4)
    # steps of 2 and 1 training drops, then one validation chunk of 2
    assert [x.shape[0] for (x,) in calls] == [2, 1, 2]


def test_neural_generator_at_a_second_geometry_matches_a_fresh_one():
    dims = _dims()
    geo8 = ch.ArrayGeometry(n_x=8, n_y=8, dual_polarized=True)
    obsc_for = lambda geo, seed: _random_obsc(geo, dims, 1, seed)

    used = nbl.NeuralGenerator(Tape(), 1, dims, n_pol=2)
    used.generate_for(obsc_for(_geo(), 0), _geo())
    for geo, seed in ((geo8, 1), (_geo(), 2), (geo8, 3)):
        got = used.generate_for(obsc_for(geo, seed), geo)
        fresh = nbl.NeuralGenerator(Tape(), 1, dims, n_pol=2)
        want = fresh.generate_for(obsc_for(geo, seed), geo)
        for a, b in zip(got[0] + got[1], want[0] + want[1]):
            np.testing.assert_array_equal(a.value, b.value)


def test_neural_generator_rejects_polarization_mismatch():
    dims = _dims()
    net = nbl.NeuralGenerator(Tape(), 1, dims, n_pol=2)
    geo = ch.ArrayGeometry(n_x=4, n_y=4, dual_polarized=False)
    pair = cb.make_transform_pair(geo)
    obsc = [np.zeros((dims.l_max, pair.n_xo + 1, pair.n_yo + 1), complex)]
    with pytest.raises(Exception):
        net.generate_for(obsc, geo)


@pytest.mark.parametrize("n_x, n_y, side", [
    (6, 6, (9, 9)), (7, 8, (9, 9)), (2, 4, (5, 5)), (3, 5, (5, 6)),
    (4, 4, (5, 5)), (5, 5, (6, 6)), (8, 8, (9, 9)),
])
def test_neural_generator_serves_every_array_size(n_x, n_y, side):
    # the network maps an image side s to 4*ceil(s/4) - 3; an image of side
    # N + 1 is zero-padded on its far edges only where that falls below N
    geo = ch.ArrayGeometry(n_x=n_x, n_y=n_y, dual_polarized=True)
    dims = _dims()
    tape = Tape()
    gen = nbl.NeuralGenerator(tape, 1, dims, n_pol=2)
    calls = []
    gen._network = _counting(gen._network, calls)
    ssb, csirs = gen.generate_for(_random_obsc(geo, dims, 1, 0), geo)
    assert [x.shape[-2:] for (x,) in calls] == [side]
    assert ssb[0].shape == (dims.l_max, geo.n_elements)
    assert csirs[0].shape == (dims.n_cb, geo.n_elements, dims.b_g)
    for book in (ssb[0], csirs[0]):
        np.testing.assert_allclose(np.abs(book.value), 1 / np.sqrt(geo.n_elements))
    ad.backward(_books_loss(ssb + csirs, [np.ones(ssb[0].shape),
                                          np.ones(csirs[0].shape)]))
    assert all(np.isfinite(p.grad).all() for p in tape.parameters.values())


def test_generator_parameter_names_shapes_and_order_are_pinned():
    # the checkpoint layout is the tape's registration order
    dims = _dims()  # l_max 8, n_cb 4, b_g 2
    tape = Tape()
    gen = nbl.DirectGenerator(tape, 2, _geo(), dims)
    assert [(k, p.shape) for k, p in tape.parameters.items()] == [
        ("ssb0", (16, 4, 4)), ("csirs0", (16, 4, 4)),
        ("ssb1", (16, 4, 4)), ("csirs1", (16, 4, 4))]
    # every cell starts at the DFT baseline in an array of its own
    np.testing.assert_array_equal(gen.ssb_params[0].value, gen.ssb_params[1].value)
    assert not np.shares_memory(gen.ssb_params[0].value, gen.ssb_params[1].value)
    assert not np.shares_memory(gen.csirs_params[0].value,
                                gen.csirs_params[1].value)
    tape = Tape()
    nbl.NeuralGenerator(tape, 2, dims, n_pol=2)
    cin, cout = 2 * 8 * 2 * 2, 2 * (8 + 4 * 2) * 2 * 2
    assert [(k, p.shape) for k, p in tape.parameters.items()] == [
        ("conv1_w", (16, cin, 3, 3)), ("conv1_b", (1, 16, 1, 1)),
        ("conv2_w", (32, 16, 3, 3)), ("conv2_b", (1, 32, 1, 1)),
        ("deconv1_w", (32, 16, 3, 3)), ("deconv1_b", (1, 16, 1, 1)),
        ("deconv2_w", (16, cout, 3, 3)), ("deconv2_b", (1, cout, 1, 1))]


@pytest.mark.parametrize("mode", ["direct", "neural"])
def test_load_parameters_gives_a_fresh_generator_the_loaded_values(mode):
    dims = _dims()

    def build(tape, seed):
        if mode == "direct":
            gen = nbl.DirectGenerator(tape, 2, _geo(), dims)
            return gen.generate, gen.ssb_params + gen.csirs_params
        gen = nbl.NeuralGenerator(tape, 2, dims, n_pol=2, seed=seed)
        return lambda o: gen.generate_for(o, _geo()), gen.weights

    loaded = Tape()
    want_generate, _ = build(loaded, seed=1)
    for p in loaded.parameters.values():  # away from any fresh generator's
        p.value = p.value + 0.25
    loaded.parameter("unused", np.ones(3))  # only the checkpoint holds it
    tape = Tape()
    generate, bound = build(tape, seed=2)
    nbl.load_parameters(tape, loaded)
    assert list(tape.parameters) == list(loaded.parameters)[:-1]
    # the generator reads its own tape's tensors, which now hold the values
    assert {id(p) for p in bound} == {id(p) for p in tape.parameters.values()}
    for name, p in tape.parameters.items():
        assert p.value is loaded.parameters[name].value
    obsc = _random_obsc(_geo(), dims, 2, 0)
    got, want = generate(obsc), want_generate(obsc)
    for a, b in zip(got[0] + got[1], want[0] + want[1]):
        np.testing.assert_array_equal(a.value, b.value)


@pytest.mark.parametrize("path", ["forward_model", "evaluate_drop"])
def test_shared_correlation_memo_keeps_subsets_and_computes_once_per_cell(path):
    # one memo through every drop: the training rollout's, and evaluation's,
    # where it lasts as long as the codebooks (a whole `evaluate` call)
    cfg = _config(c_cells=3, user_count_range=(4, 6))
    dims = _dims(n_cb=8, n_csi=4)
    data, sigma2 = _dataset(cfg, dims, n_samples=4)
    gen = nbl.DirectGenerator(Tape(), cfg.c_cells, cfg.geometry, dims)
    settings = mx.EvalSettings(n_csi=dims.n_csi, l_csi=2, s_b=2, k_ssb=2)
    rng = np.random.default_rng(4)
    for perturb in (0.0, 0.3):  # DFT ties, then a generic codebook
        for p in gen.ssb_params + gen.csirs_params:
            p.value = p.value + perturb * (rng.standard_normal(p.value.shape)
                                           + 1j * rng.standard_normal(p.value.shape))
        ssb, csirs = gen.generate()
        memo = {}
        if path == "forward_model":
            for s in data:
                kw = dict(new_user_mask=s.new_user_mask)
                shared = nbl.forward_model(s.h, ssb, csirs, sigma2, dims.n_csi,
                                           memo=memo, **kw)
                alone = nbl.forward_model(s.h, ssb, csirs, sigma2, dims.n_csi, **kw)
                assert shared.pin.subset_indices == alone.pin.subset_indices
            assert len(memo) == cfg.c_cells
        else:
            # cells 0 and 1 share one (SSB, precoder) array pair
            beams = [ssb[0].value, ssb[0].value, ssb[2].value]
            precoders = [csirs[0].value, csirs[0].value, csirs[2].value]
            for seed in range(5):
                shared = mx.evaluate_drop(cfg, settings, beams, precoders, seed,
                                          memo=memo)
                assert shared == mx.evaluate_drop(cfg, settings, beams, precoders,
                                                  seed, memo={})
            assert len(memo) == 2


# -------------------------------- dataset --------------------------------

def test_dataset_new_user_probability_extremes():
    cfg = _config()
    dims = _dims()
    prior = [cb.build_dft_ssb(cfg.geometry, dims.l_max, FULL)]
    none = nbl.build_dataset(cfg, prior, 3, seed=5, sigma2=1.0, new_user_prob=0.0)
    every = nbl.build_dataset(cfg, prior, 3, seed=5, sigma2=1.0, new_user_prob=1.0)
    assert not any(s.new_user_mask.any() for s in none)
    assert all(s.new_user_mask.all() for s in every)


def test_dataset_shapes_and_determinism():
    cfg = _config()
    dims = _dims()
    prior = [cb.build_dft_ssb(cfg.geometry, dims.l_max, FULL)]
    a = nbl.build_dataset(cfg, prior, 2, seed=9, sigma2=1.0)
    b = nbl.build_dataset(cfg, prior, 2, seed=9, sigma2=1.0)
    pair = cb.make_transform_pair(cfg.geometry)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.h, sb.h)
        assert np.array_equal(sa.targets, sb.targets)
        assert sa.obsc[0].shape == (dims.l_max * 2, pair.n_xo + 1, pair.n_yo + 1)
        assert np.all(np.isfinite(sa.targets)) and sa.targets.min() >= 0.0


# -------------------------------- training -------------------------------

def test_adam_first_step_is_lr_sized():
    tape = Tape()
    p = tape.parameter("w", np.array([1.0 + 0.0j]))
    p.grad = np.array([0.5 + 0.0j])
    opt = nbl.Adam(lr=0.01)
    opt.step(tape)
    assert p.value[0] == pytest.approx(1.0 - 0.01, abs=1e-6)


def test_adam_moves_a_zero_gradient_by_momentum_and_skips_a_missing_one():
    tape = Tape()
    zero = tape.parameter("zero", np.array([1.0 + 0.0j]))
    none = tape.parameter("none", np.array([1.0 + 0.0j]))
    opt = nbl.Adam(lr=0.01)
    zero.grad, none.grad = np.array([0.5 + 0.0j]), np.array([0.5 + 0.0j])
    opt.step(tape)
    after_first = zero.value.copy()
    assert none.value[0] == after_first[0]
    zero.grad, none.grad = np.zeros(1, complex), None
    opt.step(tape)
    # the all-zero gradient still steps, by the first moment it carries
    assert zero.value[0].real < after_first[0].real - 1e-3
    # a missing gradient leaves the value and both moments untouched
    assert none.value[0] == after_first[0]
    assert opt.m["none"][0] == pytest.approx(0.05)


class _FrozenAdam(nbl.Adam):
    """Adam.step as it was before its update moved into scratch buffers."""

    def step(self, tape):
        self.step_count += 1
        t = self.step_count
        for name, p in tape.parameters.items():
            g = p.grad
            if g is None:
                continue
            if name not in self.m:
                self.m[name] = np.zeros_like(p.value)
                self.v[name] = np.zeros(p.value.shape)
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * np.abs(g) ** 2
            mh = self.m[name] / (1 - self.beta1 ** t)
            vh = self.v[name] / (1 - self.beta2 ** t)
            p.value = p.value - self.lr * mh / (np.sqrt(vh) + self.eps)


def test_adam_matches_frozen_update_bit_for_bit():
    # three steps over a parameter with a gradient, one whose gradient turns
    # all zero (it moves by momentum) and one that loses its gradient
    rng = np.random.default_rng(31)
    start = {name: rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
             for name in ("live", "zero", "none")}
    grads = [{name: rng.standard_normal((3, 5)) * 10.0 ** rng.integers(-6, 3, (3, 5))
              + 1j * rng.standard_normal((3, 5)) for name in start} for _ in range(3)]
    grads[1]["zero"] = grads[2]["zero"] = np.zeros((3, 5), complex)
    grads[1]["none"] = grads[2]["none"] = None
    runs = []
    for opt in (nbl.Adam(lr=0.01), _FrozenAdam(lr=0.01)):
        tape = Tape()
        params = {name: tape.parameter(name, value.copy()) for name, value in start.items()}
        history = []
        for step_grads in grads:
            for name, p in params.items():
                p.grad = step_grads[name]
            held = params["live"].value  # a graph built before the step keeps it
            opt.step(tape)
            assert not np.shares_memory(held, params["live"].value)
            history.append({name: p.value.copy() for name, p in params.items()})
        runs.append((history, opt.m, opt.v))
    (got, got_m, got_v), (want, want_m, want_v) = runs
    for got_step, want_step in zip(got, want):
        for name in start:
            assert np.array_equal(got_step[name], want_step[name]), name
    for name in start:
        assert np.array_equal(got_m[name], want_m[name])
        assert np.array_equal(got_v[name], want_v[name])
    assert np.array_equal(got[2]["none"], got[0]["none"])
    assert not np.array_equal(got[2]["zero"], got[0]["zero"])


def test_train_same_seed_bitwise():
    cfg = _config()
    dims = _dims()
    data, sigma2 = _dataset(cfg, dims, n_samples=2)
    results = []
    for _ in range(2):
        tape = Tape()
        gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
        curve = nbl.train(data, gen.generate, tape, sigma2, dims.n_csi,
                          epochs=2, lr=1e-3, seed=3)
        results.append((curve, {k: p.value.copy()
                                for k, p in tape.parameters.items()}))
    assert results[0][0] == results[1][0]
    for k in results[0][1]:
        assert np.array_equal(results[0][1][k], results[1][1][k])


def test_train_zero_lr_leaves_parameters_untouched():
    cfg = _config()
    dims = _dims()
    data, sigma2 = _dataset(cfg, dims, n_samples=2)
    tape = Tape()
    gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
    before = {k: p.value.copy() for k, p in tape.parameters.items()}
    curve = nbl.train(data, gen.generate, tape, sigma2, dims.n_csi,
                      epochs=2, lr=0.0, seed=3)
    for k, p in tape.parameters.items():
        assert np.array_equal(p.value, before[k])
    assert curve[0] == pytest.approx(curve[-1])


def test_train_reduces_loss_on_toy_drop():
    cfg = _config(cluster_count=1, rays_per_cluster=1, user_count_range=(2, 2))
    dims = _dims()
    data, sigma2 = _dataset(cfg, dims, n_samples=1, seed=21)
    tape = Tape()
    gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
    curve = nbl.train(data, gen.generate, tape, sigma2, dims.n_csi,
                      epochs=60, lr=5e-3, seed=4, ssb_weight=0.0)
    assert np.mean(curve[-5:]) < 0.9 * np.mean(curve[:5])


def _per_sample_step_gradients(dataset, generate, tape, sigma2, n_csi,
                               batch_size, seed, ssb_weight=0.0,
                               balance_weight=0.0, disaggregated_cells=None):
    """Reference: the training step as it was before one graph per step.

    Codebooks are generated and backpropagated once per drop.  One epoch at
    learning rate 0 and no validation; returns each step's tape gradients.
    """
    grads = []
    order = np.random.default_rng(seed * 7919).permutation(len(dataset))
    for step, start in enumerate(range(0, len(order), batch_size)):
        batch = order[start:start + batch_size]
        tape.zero_grad()
        for j in batch:
            cell = (step % disaggregated_cells) if disaggregated_cells else None
            loss = _total_loss(dataset[j], generate, sigma2, n_csi,
                               ssb_weight, cell, balance_weight)
            ad.backward(ad.scale(loss, 1.0 / len(batch)))
        grads.append({k: g.copy() for k, g in tape.gradients().items()})
    return grads


@pytest.mark.parametrize("mode, cells, n_samples, batch_size, kw", [
    ("direct", 1, 4, 4, dict(ssb_weight=0.3)),
    ("neural", 2, 4, 4, dict(ssb_weight=0.3)),
    ("direct", 3, 4, 2, dict(ssb_weight=0.3, disaggregated_cells=3)),
    ("direct", 2, 4, 4, dict(balance_weight=0.5)),
    ("direct", 2, 5, 2, dict(ssb_weight=0.3)),
    ("neural", 2, 5, 2, dict(ssb_weight=0.3)),
    ("neural", 2, 4, 2, dict(ssb_weight=0.3, disaggregated_cells=2)),
], ids=["direct", "neural", "disaggregated", "balance", "short-last-batch",
        "neural-short-last-batch", "neural-disaggregated"])
def test_one_graph_step_matches_per_sample_backward(mode, cells, n_samples,
                                                    batch_size, kw):
    cfg = _config(c_cells=cells)
    dims = _dims()
    data, sigma2 = _dataset(cfg, dims, n_samples=n_samples)

    def fresh():
        tape = Tape()
        if mode == "direct":
            gen = nbl.DirectGenerator(tape, cells, cfg.geometry, dims)
            # the reference regenerates the codebooks for every drop: each
            # call builds a new graph from the parameters
            return tape, gen.generate, gen.generate
        gen = nbl.NeuralGenerator(tape, cells, dims, n_pol=2)
        generate = lambda o: gen.generate_for(o, cfg.geometry)
        return tape, generate, generate

    tape, _, regenerate = fresh()
    want = _per_sample_step_gradients(data, regenerate, tape, sigma2, dims.n_csi,
                                      batch_size, seed=3, **kw)
    tape, generate, _ = fresh()
    got = []
    nbl.train(data, generate, tape, sigma2, dims.n_csi, epochs=1, lr=0.0,
              batch_size=batch_size, seed=3, val_fraction=0.0,
              callback=lambda step, loss: got.append(
                  {k: g.copy() for k, g in tape.gradients().items()}), **kw)
    assert len(got) == len(want) == -(-n_samples // batch_size)
    for g_step, w_step in zip(got, want):
        for name, w in w_step.items():
            np.testing.assert_allclose(g_step[name], w, rtol=1e-12,
                                       atol=1e-12 * np.abs(w).max(), err_msg=name)


def test_validation_callback_reports_epochs_and_changes_no_output():
    cfg = _config()
    dims = _dims(n_cb=8, n_csi=8)
    data, sigma2 = _dataset(cfg, dims, n_samples=6)
    runs = []
    for hook in (False, True):
        tape = Tape()
        gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
        rows = []
        curve = nbl.train(data, gen.generate, tape, sigma2, dims.n_csi,
                          epochs=5, lr=1.0, batch_size=2, seed=2,
                          val_fraction=0.5,
                          val_callback=(lambda *r: rows.append(r)) if hook else None)
        runs.append((curve, {k: p.value.copy() for k, p in tape.parameters.items()},
                     rows))
    (curve0, params0, _), (curve1, params1, rows) = runs
    assert curve0 == curve1
    for k in params0:
        np.testing.assert_array_equal(params0[k], params1[k])
    assert [r[0] for r in rows] == [0, 1, 2, 3, 4]
    losses = [r[1] for r in rows]
    best = int(np.argmin(losses))
    assert rows[-1][2] == best < 4  # a large step overshoots after the best
    assert all(r[2] == int(np.argmin(losses[:r[0] + 1])) for r in rows)
    # the restored parameters are the best epoch's: validating them again
    # reproduces its loss
    loaded = Tape()
    for k, v in params1.items():
        loaded.parameter(k, v)
    tape = Tape()
    gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
    nbl.load_parameters(tape, loaded)
    val = data[:3]
    again = sum(float(_total_loss(s, gen.generate, sigma2, dims.n_csi,
                                  0.0).value.real) / len(val) for s in val)
    assert again == pytest.approx(losses[best], rel=1e-12)


def test_disaggregated_step_updates_only_its_cell():
    cfg = _config(c_cells=3)
    dims = _dims()
    data, sigma2 = _dataset(cfg, dims, n_samples=4)
    tape = Tape()
    gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
    before = {k: p.value.copy() for k, p in tape.parameters.items()}
    changed = []

    def record(step, loss):
        now = {k: p.value.copy() for k, p in tape.parameters.items()}
        changed.append({k for k in now if not np.array_equal(now[k], before[k])})
        before.update(now)

    nbl.train(data, gen.generate, tape, sigma2, dims.n_csi, epochs=2, lr=1e-3,
              batch_size=2, seed=3, ssb_weight=0.3, disaggregated_cells=3,
              val_fraction=0.0, callback=record)
    assert len(changed) == 4
    for step, names in enumerate(changed):
        cell = step % 3
        assert names and names <= {f"ssb{cell}", f"csirs{cell}"}, (step, names)


def test_train_raises_on_nonfinite_loss():
    cfg = _config()
    dims = _dims()
    data, sigma2 = _dataset(cfg, dims, n_samples=1)
    data[0].targets = data[0].targets * np.nan
    tape = Tape()
    gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
    with pytest.raises(DivergenceError):
        nbl.train(data, gen.generate, tape, sigma2, dims.n_csi, epochs=1, lr=1e-3)


def test_train_empty_dataset():
    tape = Tape()
    with pytest.raises(Exception):
        nbl.train([], lambda o: ([], []), tape, 1.0, 2, epochs=1)


# ------------------------------ checkpoints ------------------------------

def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    tape = Tape()
    a = tape.parameter("a", rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    b = tape.parameter("b", rng.standard_normal(4) + 0j)
    opt = nbl.Adam(lr=1e-3)
    opt.m["a"] = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    opt.v["a"] = rng.random((2, 3))
    opt.step_count = 17
    meta = {"kind": "direct", "cells": 3}
    path = tmp_path / "ck.bmck"
    nbl.save_checkpoint(path, tape, opt, meta)
    tape2, opt2, meta2 = nbl.load_checkpoint(path)
    assert meta2 == meta and opt2.step_count == 17
    assert np.array_equal(tape2.parameters["a"].value, a.value)
    assert np.array_equal(tape2.parameters["b"].value, b.value)
    assert np.array_equal(opt2.m["a"], opt.m["a"])
    assert np.array_equal(opt2.v["a"], opt.v["a"])
    assert "b" not in opt2.m


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.bmck"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError):
        nbl.load_checkpoint(path)


def test_checkpoint_truncated_anywhere_raises_format_error(tmp_path):
    rng = np.random.default_rng(7)
    tape = Tape()
    tape.parameter("a", rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    opt = nbl.Adam(lr=1e-3)
    opt.m["a"] = rng.standard_normal((2, 3)) + 0j
    opt.v["a"] = rng.random((2, 3))
    path = tmp_path / "ck.bmck"
    nbl.save_checkpoint(path, tape, opt, {"kind": "direct"})
    data = path.read_bytes()
    cut_path = tmp_path / "cut.bmck"
    for cut in range(len(data)):
        cut_path.write_bytes(data[:cut])
        with pytest.raises(FormatError):
            nbl.load_checkpoint(cut_path)


def test_checkpoint_corrupt_metadata_raises_format_error(tmp_path):
    path = tmp_path / "ck.bmck"
    nbl.save_checkpoint(path, Tape(), meta={"kind": "direct"})
    data = bytearray(path.read_bytes())
    data[12] = 0xFF  # first metadata byte: no longer UTF-8 JSON
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        nbl.load_checkpoint(path)


@pytest.mark.parametrize("where", ["parameter", "first-moment", "second-moment"])
def test_checkpoint_with_a_nonfinite_entry_raises_format_error(tmp_path, where):
    tape = Tape()
    tape.parameter("a", np.ones((2, 3), dtype=np.complex128))
    opt = nbl.Adam(lr=1e-3)
    opt.m["a"] = np.zeros((2, 3), dtype=np.complex128)
    opt.v["a"] = np.zeros((2, 3))
    target = {"parameter": tape.parameters["a"].value, "first-moment": opt.m["a"],
              "second-moment": opt.v["a"]}[where]
    target[1, 2] = np.nan if where != "second-moment" else np.inf
    path = tmp_path / "ck.bmck"
    nbl.save_checkpoint(path, tape, opt, {"kind": "direct"})
    with pytest.raises(FormatError):
        nbl.load_checkpoint(path)


def test_checkpoint_restores_direct_generator(tmp_path):
    cfg = _config()
    dims = _dims()
    tape = Tape()
    gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
    path = tmp_path / "gen.bmck"
    nbl.save_checkpoint(path, tape)
    loaded, _, _ = nbl.load_checkpoint(path)
    tape2 = Tape()
    gen2 = nbl.DirectGenerator(tape2, cfg.c_cells, cfg.geometry, dims)
    nbl.load_parameters(tape2, loaded)
    s1, c1 = gen.generate()
    s2, c2 = gen2.generate()
    np.testing.assert_array_equal(s1[0].value, s2[0].value)
    np.testing.assert_array_equal(c1[0].value, c2[0].value)
