"""Data plane: estimation, PMI, RZF precoding, scheduling, ESSE."""
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamweaver import channel as ch
from beamweaver import cli
from beamweaver import link
from beamweaver import metrics as mx
from beamweaver import nbl
from beamweaver.errors import ConfigError


def _rand_channels(rng, n_users, k_sub, n_rx, b_g, scale=1.0):
    return scale * (rng.standard_normal((n_users, k_sub, n_rx, b_g))
                    + 1j * rng.standard_normal((n_users, k_sub, n_rx, b_g)))


# --------------------------- channel estimation --------------------------

def test_subband_map_uniform():
    np.testing.assert_array_equal(link.subband_map(8, 4), [0, 0, 1, 1, 2, 2, 3, 3])
    with pytest.raises(ConfigError):
        link.subband_map(4, 8)


def test_estimate_noise_free_is_exact():
    rng = np.random.default_rng(0)
    h = _rand_channels(rng, 2, 8, 4, 4)
    h[:, 1::2] = h[:, 0::2]  # frequency-flat within each 2-RE subband
    est = link.estimate_channel(h, sigma2=1.0, s_b=4)
    np.testing.assert_allclose(est.h_est, h[:, ::2], atol=1e-10)


def test_estimate_shrinks_to_zero_in_heavy_noise():
    rng = np.random.default_rng(1)
    h = _rand_channels(rng, 2, 4, 2, 2, scale=1e-6)
    est = link.estimate_channel(h, sigma2=1e9, s_b=4)  # one RE per subband
    np.testing.assert_allclose(est.h_est, 0.0, atol=1e-12)


def test_estimate_mse_decreases_with_averaging():
    rng = np.random.default_rng(2)
    true = _rand_channels(rng, 1, 1, 2, 2)[:, 0]
    sigma2 = 0.5
    errs = []
    for k_sub in (2, 8, 32):
        se = 0.0
        for _ in range(200):
            y = np.broadcast_to(true[:, None], (1, k_sub, 2, 2)).copy()
            y += np.sqrt(sigma2 / 2) * (rng.standard_normal(y.shape)
                                        + 1j * rng.standard_normal(y.shape))
            est = link.estimate_channel(y, sigma2, s_b=1)
            se += np.abs(est.h_est[:, 0] - true).sum() ** 2
        errs.append(se)
    assert errs[0] > errs[1] > errs[2]


# ------------------------------- PMI -------------------------------------

def test_pmi_recovers_basis_column():
    b_g, s_b = 4, 2
    basis = link.port_dft(b_g)
    v = basis[:, 5]
    h = np.zeros((1, s_b, 2, b_g), dtype=np.complex128)
    h[0, :, 0] = np.conj(v)  # rank-1 channel whose right vector is v
    est = link.BeamformedChannelEstimate(h_est=h,
                                         subband_of_k=link.subband_map(4, s_b))
    fb, recon = link.quantize_pmi(est, l_csi=4)
    for s in range(s_b):
        corr = abs(np.vdot(v, recon[0, s])) / np.linalg.norm(v)
        assert corr >= 0.98


def test_pmi_zero_estimate_degenerate_rule():
    est = link.BeamformedChannelEstimate(
        h_est=np.zeros((1, 2, 2, 4), dtype=np.complex128),
        subband_of_k=link.subband_map(4, 2))
    fb, recon = link.quantize_pmi(est)
    np.testing.assert_allclose(recon[0, :, 0], 1.0)
    np.testing.assert_allclose(recon[0, :, 1:], 0.0)
    np.testing.assert_allclose(fb.amplitudes, 0.0)


# ------------------------------ precoding --------------------------------

def _one_cell_setup(rng, n_users, n_t=8, b_g=2, n_csi=4, s_b=2):
    subset = rng.standard_normal((n_csi, n_t, b_g)) + 1j * rng.standard_normal((n_csi, n_t, b_g))
    subset /= np.linalg.norm(subset, axis=1, keepdims=True)
    recon = rng.standard_normal((n_users, s_b, b_g)) + 1j * rng.standard_normal((n_users, s_b, b_g))
    recon /= np.linalg.norm(recon, axis=2, keepdims=True)
    gains = rng.uniform(0.5, 2.0, size=(n_users, s_b))
    chosen = rng.integers(0, n_csi, size=n_users)
    return subset, recon, gains, chosen


def test_single_user_scalar_matched_filter():
    recon = np.ones((1, 1, 1), dtype=np.complex128) * np.exp(0.7j)
    gains = np.ones((1, 1))
    subset = np.ones((1, 1, 1), dtype=np.complex128)
    ps = link.build_precoders(recon, gains, np.array([0]), subset, [0], 1e-3,
                              subband_of_k=np.zeros(1, int))
    # digital column is the matched filter: conj of the channel row, which
    # recovers the reconstructed direction e^{+0.7j}
    assert abs(abs(ps.digital[0, 0, 0]) - 1.0) < 1e-12
    assert abs(np.angle(ps.digital[0, 0, 0]) - 0.7) < 1e-9


def test_digital_blocks_unit_norm_and_block_diagonal():
    rng = np.random.default_rng(5)
    subset, recon, gains, chosen = _one_cell_setup(rng, n_users=3)
    ps = link.build_precoders(recon, gains, chosen, subset, [0, 1, 2], 0.1,
                              subband_of_k=link.subband_map(4, 2))
    b_g = subset.shape[2]
    for s in range(ps.digital.shape[0]):
        for j in range(3):
            col = ps.digital[s, :, j]
            block = col[j * b_g:(j + 1) * b_g]
            off = np.delete(col, slice(j * b_g, (j + 1) * b_g))
            assert abs(np.linalg.norm(block) - 1.0) < 1e-12
            assert not off.any()  # exactly zero off-block


def test_empty_schedule_is_valid():
    rng = np.random.default_rng(6)
    subset, recon, gains, chosen = _one_cell_setup(rng, n_users=2)
    ps = link.build_precoders(recon, gains, chosen, subset, [], 0.1,
                              subband_of_k=link.subband_map(4, 2))
    assert ps.users == [] and ps.digital.shape[2] == 0


def test_rzf_zero_forcing_limit():
    rng = np.random.default_rng(7)
    b_g = 4
    rows = rng.standard_normal((2, b_g)) + 1j * rng.standard_normal((2, b_g))
    blocks = np.broadcast_to(np.eye(b_g), (2, b_g, b_g))  # B_i^H B_u = I
    cols = link._rzf_columns(link._cross_channels(rows, blocks), sigma2=1e-12)
    for i in range(2):
        for v in range(2):
            if i != v:
                leak = abs(rows[i] @ cols[v]) / abs(rows[i] @ cols[i])
                assert 20.0 * np.log10(leak) < -40.0


def test_rzf_matched_filter_limit():
    rng = np.random.default_rng(8)
    b_g = 4
    rows = rng.standard_normal((2, b_g)) + 1j * rng.standard_normal((2, b_g))
    blocks = np.broadcast_to(np.eye(b_g), (2, b_g, b_g))  # B_i^H B_u = I
    cols = link._rzf_columns(link._cross_channels(rows, blocks), sigma2=1e9)
    for i in range(2):
        mf = np.conj(rows[i]) / np.linalg.norm(rows[i])
        cos = abs(np.vdot(mf, cols[i]))
        assert cos > 0.999


# ------------------------------ scheduling -------------------------------

def test_schedule_single_candidate():
    rng = np.random.default_rng(9)
    subset, recon, gains, chosen = _one_cell_setup(rng, n_users=1)
    assert link.schedule_users(recon, gains, chosen, subset, [0], 0.1) == [0]


def test_schedule_skips_identical_clone():
    rng = np.random.default_rng(10)
    subset, recon, gains, chosen = _one_cell_setup(rng, n_users=1)
    recon = np.concatenate([recon, recon])
    gains = np.concatenate([gains, gains])
    chosen = np.concatenate([chosen, chosen])
    sched = link.schedule_users(recon, gains, chosen, subset, [0, 1], 0.1)
    assert len(sched) == 1


def test_schedule_port_budget_bound():
    # port groups as wide as the whole budget leave room for one user
    rng = np.random.default_rng(11)
    subset, recon, gains, chosen = _one_cell_setup(rng, n_users=4, n_t=64,
                                                   b_g=link.DIGITAL_PORTS)
    sched = link.schedule_users(recon, gains, chosen, subset, [0, 1, 2, 3], 0.1)
    assert len(sched) == 1


def test_schedule_never_below_best_singleton():
    rng = np.random.default_rng(12)
    for trial in range(10):
        subset, recon, gains, chosen = _one_cell_setup(rng, n_users=4)
        cand = [0, 1, 2, 3]
        sched = link.schedule_users(recon, gains, chosen, subset, cand, 0.2)
        recon_wb = link._wideband_profile(recon)
        gains_wb = gains.mean(axis=1)
        se_sched = _estimated_sum_se(sched, recon_wb, gains_wb, chosen, subset, 0.2)
        best_single = max(_estimated_sum_se([u], recon_wb, gains_wb, chosen, subset, 0.2)
                          for u in cand)
        assert se_sched >= best_single - 1e-12


def test_schedule_ties_go_to_the_lower_user():
    # users 1 and 2 are exact clones on resource 0 and user 0 sits on the
    # orthogonal resource 1, so {0, 1} and {0, 2} score exactly alike
    subset = np.zeros((2, 4, 2), dtype=np.complex128)
    subset[0, :2], subset[1, 2:] = np.eye(2), np.eye(2)
    recon = np.array([[[1.0, 0.0]], [[0.6, 0.8j]], [[0.6, 0.8j]]])
    gains, chosen = np.ones((3, 1)), np.array([1, 0, 0])
    sched = link.schedule_users(recon, gains, chosen, subset, [0, 1, 2], 0.1)
    assert sched == [0, 1]


def test_greedy_close_to_exhaustive_small():
    rng = np.random.default_rng(13)
    subset, recon, gains, chosen = _one_cell_setup(rng, n_users=5)
    cand = list(range(5))
    recon_wb = link._wideband_profile(recon)
    gains_wb = gains.mean(axis=1)
    greedy = link.schedule_users(recon, gains, chosen, subset, cand, 0.2)
    best = _reference_schedule_users_exhaustive(recon, gains, chosen, subset, cand,
                                                0.2, link.DIGITAL_PORTS)
    se_g = _estimated_sum_se(greedy, recon_wb, gains_wb, chosen, subset, 0.2)
    se_b = _estimated_sum_se(best, recon_wb, gains_wb, chosen, subset, 0.2)
    assert se_g >= 0.95 * se_b


# -------------------------------- ESSE -----------------------------------

def _transmission(rng, c_cells=1, n_users=2, n_t=8, b_g=2, k_sub=4, n_rx=2,
                  sigma2=0.05):
    h = (rng.standard_normal((c_cells, n_users, 1, k_sub, n_rx, n_t))
         + 1j * rng.standard_normal((c_cells, n_users, 1, k_sub, n_rx, n_t)))
    sets = []
    for c in range(c_cells):
        subset, recon, gains, chosen = _one_cell_setup(rng, n_users, n_t=n_t,
                                                       b_g=b_g)
        sets.append(link.build_precoders(recon, gains, chosen, subset,
                                         list(range(n_users)), sigma2,
                                         subband_of_k=link.subband_map(k_sub, 2)))
    return h, sets


def test_data_fraction():
    assert link.data_fraction(16, 16, 4, 16, 160) == pytest.approx(1.0 - 20.0 / 160.0)
    assert link.data_fraction(1000, 1000, 16, 16, 160) == 0.0


def test_esse_zero_when_everything_is_overhead():
    rng = np.random.default_rng(14)
    h, sets = _transmission(rng)
    alpha = link.data_fraction(1000, 1000, 16, 16, 160)  # no data left
    rep = link.transmit_and_score(h, sets, 0.05, alpha=alpha)
    assert rep.esse == 0.0


def test_esse_unchanged_by_zero_channel_cell():
    rng = np.random.default_rng(15)
    h, sets = _transmission(rng, c_cells=1)
    base = link.transmit_and_score(h, sets, 0.05)
    h2 = np.concatenate([h, np.zeros_like(h)], axis=0)
    empty = link.build_precoders(np.zeros((2, 2, 2), complex), np.zeros((2, 2)),
                                 np.zeros(2, int), np.zeros((4, 8, 2), complex),
                                 [], 0.05, subband_of_k=link.subband_map(4, 2))
    both = link.transmit_and_score(h2, sets + [empty], 0.05)
    assert both.esse == pytest.approx(base.esse, rel=1e-12)


def test_esse_single_user_rate_reduction():
    # one cell, one user: per-RE rate must equal log2(1 + |v|^2 / sigma2)
    rng = np.random.default_rng(16)
    sigma2 = 0.1
    h, _ = _transmission(rng, n_users=1, n_rx=1, sigma2=sigma2)
    subset, recon, gains, chosen = _one_cell_setup(rng, 1)
    ps = link.build_precoders(recon, gains, chosen, subset, [0], sigma2,
                              subband_of_k=link.subband_map(4, 2))
    rep = link.transmit_and_score(h, [ps], sigma2)
    k_sub, n_t = 4, 8
    rates = []
    for k in range(k_sub):
        w = ps.analog @ ps.digital[ps.subband_of_k[k]] / np.sqrt(1 * k_sub * n_t)
        v = h[0, 0, 0, k] @ w[:, 0]
        rates.append(np.log2(1.0 + np.abs(v) ** 2 / sigma2))
    np.testing.assert_allclose(rep.per_user_rate[0], np.mean(rates), rtol=1e-10)


def test_esse_monotone_in_noise():
    rng = np.random.default_rng(17)
    h, sets = _transmission(rng)
    esses = [link.transmit_and_score(h, sets, s2).esse for s2 in (1.0, 0.1, 0.01)]
    assert esses[0] < esses[1] < esses[2]


def test_single_user_per_cell_noise_floor():
    # with one scheduled user and C=1 there is no interference, so the
    # implied I+N can never sit below the noise floor (Jensen: the effective
    # SNR from the mean rate is at most the mean per-RE SNR)
    rng = np.random.default_rng(18)
    sigma2 = 0.2
    h, _ = _transmission(rng, n_users=1, sigma2=sigma2)
    subset, recon, gains, chosen = _one_cell_setup(rng, 1)
    ps = link.build_precoders(recon, gains, chosen, subset, [0], sigma2,
                              subband_of_k=link.subband_map(4, 2))
    rep = link.transmit_and_score(h, [ps], sigma2)
    k_sub, n_t = 4, 8
    sig = np.mean([np.sum(np.abs(h[0, 0, 0, k] @ ps.analog
                                 @ ps.digital[ps.subband_of_k[k]]) ** 2)
                   for k in range(k_sub)]) / (k_sub * n_t)
    implied_in = sig / (np.exp2(rep.per_user_rate[0]) - 1.0)
    assert implied_in >= sigma2 * (1.0 - 1e-9)


def test_allocation_fractions_sum_to_one():
    rng = np.random.default_rng(19)
    h, sets = _transmission(rng, c_cells=2)
    rep = link.transmit_and_score(h, sets, 0.05)
    assert rep.allocation.sum() == pytest.approx(1.0)


# ------------- frozen per-user references of the batched data plane -------------
# The loops below are the data plane as it was before it was batched: PMI
# quantization one (user, subband) SVD at a time, RZF one least-squares solve
# per user, and a scheduler that rebuilds the Gram tensor for every trial set.

def _reference_quantize_pmi(estimate, l_csi=4):
    h = estimate.h_est
    n_users, s_b, n_rx, b_g = h.shape
    basis = link.port_dft(b_g)
    beams = np.zeros((n_users, l_csi), dtype=int)
    amps = np.zeros((n_users, l_csi))
    cophases = np.zeros((n_users, l_csi, s_b))
    gains = np.zeros((n_users, s_b))
    recon = np.zeros((n_users, s_b, b_g), dtype=np.complex128)
    for u in range(n_users):
        if not h[u].any():
            recon[u, :, 0] = 1.0
            continue
        vecs = np.zeros((s_b, b_g), dtype=np.complex128)
        for s in range(s_b):
            _, sv, vh = np.linalg.svd(h[u, s])
            vecs[s], gains[u, s] = np.conj(vh[0]), float(sv[0])
        proj = np.conj(basis.T) @ vecs.T
        score = (np.abs(proj) ** 2).sum(axis=1)
        order = np.argsort(-score, kind="stable")[:l_csi]
        beams[u] = np.sort(order)
        sel = proj[beams[u]]
        a = np.sqrt((np.abs(sel) ** 2).mean(axis=1))
        peak = a.max()
        if peak > 0:
            a = a / peak
            levels = 2 ** 3 - 1  # 3-bit amplitudes
            a = np.round(a * levels) / levels
            ref = int(np.argmax(a))
            ph = np.angle(sel * np.conj(sel[ref]))
            step = 2.0 * np.pi / (2 ** 3)  # 3-bit co-phases
            ph = np.ceil(ph / step - 0.5) * step
            amps[u], cophases[u] = a, ph
            for s in range(s_b):
                w = (a * np.exp(1j * ph[:, s]))[None, :] * basis[:, beams[u]]
                v = w.sum(axis=1)
                recon[u, s] = v / np.linalg.norm(v)
        else:
            recon[u, :, 0] = 1.0
    return link.PmiFeedback(beams=beams, amplitudes=amps, cophases=cophases,
                            gains=gains), recon


def _reference_rzf_blocks(rows, grams, sigma2, n_ports):
    n_a, b_g = rows.shape
    cols = np.zeros((n_a, b_g), dtype=np.complex128)
    reg = n_a * n_ports * sigma2
    for u in range(n_a):
        h_u = np.stack([rows[i] @ grams[i, u] for i in range(n_a)])
        # [H_u; sqrt(reg) I] f = [e_u; 0] in least squares: its normal
        # equations are the RZF system, solved without forming H_u^H H_u
        stacked = np.vstack([h_u, np.sqrt(reg) * np.eye(b_g)])
        f = np.linalg.lstsq(stacked, np.eye(n_a + b_g)[:, u], rcond=None)[0]
        norm = np.linalg.norm(f)
        cols[u] = f / norm if norm > 0 else 0.0
    return cols


def _estimated_sum_se(cand, recon_wb, gains_wb, chosen, subset_precoders, sigma2):
    """The scheduler's model-based sum SE of one candidate set, through the
    same cross-channel and SE kernels that ``link.schedule_users`` scores with."""
    cross = link._candidate_cross(cand, recon_wb, gains_wb, chosen, subset_precoders)
    return float(link._sum_se(cross, sigma2))


def _reference_estimated_sum_se(cand, recon_wb, gains_wb, chosen,
                                subset_precoders, sigma2, n_ports):
    n_a = len(cand)
    blocks = np.stack([subset_precoders[chosen[u]] for u in cand])
    grams = np.einsum("itb,jtc->ijbc", np.conj(blocks), blocks)
    rows = np.stack([gains_wb[u] * np.conj(recon_wb[u]) for u in cand])
    cols = _reference_rzf_blocks(rows, grams, sigma2, n_ports)
    p = 1.0 / n_a
    total = 0.0
    for i in range(n_a):
        a = np.array([(rows[i] @ grams[i, v]) @ cols[v] for v in range(n_a)])
        sig = p * np.abs(a[i]) ** 2
        intf = p * (np.abs(a) ** 2).sum() - sig
        leak = link._PMI_LEAKAGE * (n_a - 1) * sig
        total += np.log2(1.0 + sig / (intf + leak + sigma2))
    return float(total)


def _reference_schedule_users(recon, gains, chosen, subset_precoders, candidates,
                              sigma2, n_ports=link.DIGITAL_PORTS):
    b_g = subset_precoders.shape[2]
    recon_wb = link._wideband_profile(recon)
    gains_wb = gains.mean(axis=1)
    cand = sorted(int(u) for u in candidates)
    if not cand or b_g > n_ports:
        return []

    def se_of(users):
        return _reference_estimated_sum_se(sorted(users), recon_wb, gains_wb,
                                           chosen, subset_precoders, sigma2,
                                           n_ports)

    def grow(schedule, se):
        remaining = [u for u in cand if u not in schedule]
        while remaining and (len(schedule) + 1) * b_g <= n_ports:
            trial = [(se_of(schedule + [u]), u) for u in remaining]
            se_new, pick = max(trial, key=lambda t: (t[0], -t[1]))
            if se_new <= se:
                break
            se = se_new
            schedule.append(pick)
            remaining.remove(pick)
        return schedule, se

    def polish(schedule, se):
        improved = True
        while improved:
            improved = False
            for out in sorted(schedule):
                if len(schedule) > 1 and se_of([u for u in schedule if u != out]) > se:
                    schedule = [u for u in schedule if u != out]
                    se = se_of(schedule)
                    improved = True
                    break
                rest = [u for u in schedule if u != out]
                others = [u for u in cand if u not in schedule]
                if not others:
                    continue
                trial = [(se_of(rest + [u]), u) for u in others]
                se_new, pick = max(trial, key=lambda t: (t[0], -t[1]))
                if se_new > se:
                    schedule, se = rest + [pick], se_new
                    improved = True
                    break
        return schedule, se

    best_se, best_sched = 0.0, []
    for first in cand:
        schedule, se = grow([first], se_of([first]))
        schedule, se = polish(schedule, se)
        if se > best_se:
            best_se, best_sched = se, schedule
    return sorted(best_sched)


def _reference_schedule_users_exhaustive(recon, gains, chosen, subset_precoders,
                                         candidates, sigma2, n_ports):
    b_g = subset_precoders.shape[2]
    recon_wb = link._wideband_profile(recon)
    gains_wb = gains.mean(axis=1)
    best, best_set = 0.0, []
    cand = sorted(int(u) for u in candidates)
    for r in range(1, len(cand) + 1):
        if r * b_g > n_ports:
            break
        for combo in combinations(cand, r):
            se = _reference_estimated_sum_se(list(combo), recon_wb, gains_wb,
                                             chosen, subset_precoders, sigma2,
                                             n_ports)
            if se > best:
                best, best_set = se, list(combo)
    return best_set


def _random_instance(rng):
    """Scheduler input spanning U 1-12, B_g 1/2/4, sigma2 1e-6..1e2 and a
    binding port budget half the time; 1-3 resources, so users share them,
    and half the time an exact clone of one user, so trial sets tie.
    Returns the ``schedule_users`` arguments, a list, and the port budget
    that a test sets as ``link.DIGITAL_PORTS``."""
    n_users = int(rng.integers(1, 13))
    b_g = int(rng.choice([1, 2, 4]))
    subset, recon, gains, chosen = _one_cell_setup(
        rng, n_users, b_g=b_g, n_csi=int(rng.integers(1, 4)), s_b=3)
    if n_users > 1 and rng.random() < 0.5:
        i, j = rng.choice(n_users, size=2, replace=False)
        recon[j], gains[j], chosen[j] = recon[i], gains[i], chosen[i]
    sigma2 = float(10.0 ** rng.uniform(-6.0, 2.0))
    n_ports = (b_g * int(rng.integers(1, n_users + 1)) if rng.random() < 0.5
               else link.DIGITAL_PORTS)
    cand = sorted(rng.choice(n_users, size=int(rng.integers(1, n_users + 1)),
                             replace=False).tolist())
    return [recon, gains, chosen, subset, cand, sigma2], n_ports


@pytest.fixture(scope="module")
def default_drop_inputs():
    """Data-plane inputs captured from 20 seeded default-config drops.

    One PMI call per drop, over every user's serving-cell estimate; one
    schedule call per cell that serves a user.
    """
    config = ch.ScenarioConfig()
    dims = cli.dims_from({})
    ssb, cs = nbl.dft_codebooks(config.geometry, dims)
    ssb, csirs = [ssb.beams] * config.c_cells, [cs.precoders] * config.c_cells
    pmi_calls, schedule_calls = [], []
    quantize, schedule = link.quantize_pmi, link.schedule_users

    def capture_pmi(estimate, **kw):
        pmi_calls.append((estimate, kw))
        return quantize(estimate, **kw)

    def capture_schedule(*args):
        schedule_calls.append(args)
        return schedule(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(link, "quantize_pmi", capture_pmi)
        mp.setattr(link, "schedule_users", capture_schedule)
        for i in range(20):
            mx.evaluate_drop(config, cli.settings_from({}), ssb, csirs,
                             7 * 1000003 + i)
    return pmi_calls, schedule_calls


def _assert_pmi_matches_reference(estimate, **kw):
    fb, recon = link.quantize_pmi(estimate, **kw)
    want_fb, want_recon = _reference_quantize_pmi(estimate, **kw)
    np.testing.assert_array_equal(fb.beams, want_fb.beams)
    np.testing.assert_array_equal(fb.amplitudes, want_fb.amplitudes)
    np.testing.assert_array_equal(fb.cophases, want_fb.cophases)
    np.testing.assert_allclose(fb.gains, want_fb.gains, rtol=1e-12, atol=0)
    np.testing.assert_allclose(recon, want_recon, rtol=1e-12, atol=0)


def test_quantize_pmi_matches_frozen_per_user_loop():
    rng = np.random.default_rng(20)
    for n_users, s_b, n_rx, b_g, l_csi in [(5, 4, 2, 4, 4), (3, 8, 4, 2, 3),
                                           (4, 1, 1, 1, 2), (6, 3, 3, 4, 8)]:
        h = _rand_channels(rng, n_users, s_b, n_rx, b_g)
        h[1] = 0.0  # an all-zero estimate takes the degenerate rule
        est = link.BeamformedChannelEstimate(
            h_est=h, subband_of_k=link.subband_map(s_b, s_b))
        _assert_pmi_matches_reference(est, l_csi=l_csi)


def test_quantize_pmi_matches_frozen_loop_on_default_drops(default_drop_inputs):
    for estimate, kw in default_drop_inputs[0]:
        _assert_pmi_matches_reference(estimate, **kw)


def test_estimated_sum_se_matches_frozen_reference(monkeypatch):
    rng = np.random.default_rng(21)
    for _ in range(100):
        (recon, gains, chosen, subset, cand, sigma2), n_ports = _random_instance(rng)
        monkeypatch.setattr(link, "DIGITAL_PORTS", n_ports)
        recon_wb, gains_wb = link._wideband_profile(recon), gains.mean(axis=1)
        for r in range(1, len(cand) + 1):
            users = sorted(rng.choice(cand, size=r, replace=False).tolist())
            got = _estimated_sum_se(users, recon_wb, gains_wb, chosen, subset, sigma2)
            want = _reference_estimated_sum_se(users, recon_wb, gains_wb, chosen,
                                               subset, sigma2, n_ports)
            assert got == pytest.approx(want, rel=1e-12, abs=0)


def _spy_search(monkeypatch) -> list:
    """Count the multi-start searches: each one, and only the search,
    builds the candidates' cross-channels."""
    searched, cross = [], link._candidate_cross

    def counted(*args):
        searched.append(args[0])
        return cross(*args)

    monkeypatch.setattr(link, "_candidate_cross", counted)
    return searched


def _has_clone(recon, gains, chosen, cand):
    """Whether two candidates are exact clones, so that their sets tie."""
    return any(np.array_equal(recon[i], recon[j]) and np.array_equal(gains[i], gains[j])
               and chosen[i] == chosen[j] for i, j in combinations(cand, 2))


def test_schedulers_match_frozen_reference_on_random_instances(monkeypatch):
    searched = _spy_search(monkeypatch)
    rng = np.random.default_rng(22)
    paths = {True: Counter(), False: Counter()}  # searched or not -> kinds seen
    for _ in range(150):
        args, n_ports = _random_instance(rng)
        monkeypatch.setattr(link, "DIGITAL_PORTS", n_ports)
        before = len(searched)
        assert link.schedule_users(*args) == _reference_schedule_users(*args, n_ports)
        recon, gains, chosen, subset, cand, _ = args
        kinds = paths[len(searched) > before]
        kinds["all"] += 1
        kinds["clone"] += _has_clone(recon, gains, chosen, cand)
        kinds["one port group"] += n_ports == subset.shape[2] and len(cand) > 1
    # both the single-user shortcut and the search are exercised, each on
    # instances with exact clone ties and with room for one user only
    for kinds in paths.values():
        assert kinds["all"] >= 30 and kinds["clone"] >= 1 and kinds["one port group"] >= 1


def test_single_user_shortcut_returns_the_search_result(monkeypatch):
    # every instance is scheduled twice, the second time with the shortcut
    # off; half of them at a SINR of 1e-20..1e-8, where log2(1 + SINR)
    # rounds in absolute terms and only the 1e-12-bit margin separates users
    rng = np.random.default_rng(24)
    runs = [_random_instance(rng) for _ in range(200)]
    for args, _ in runs[1::2]:
        args[5] *= 10.0 ** rng.uniform(10.0, 18.0)  # sigma2
    searched = _spy_search(monkeypatch)

    def schedules():
        out = []
        for args, n_ports in runs:
            monkeypatch.setattr(link, "DIGITAL_PORTS", n_ports)
            out.append(link.schedule_users(*args))
        return out

    fast = schedules()
    assert len(runs) - len(searched) >= 60
    monkeypatch.setattr(link, "_clear_single", lambda alone, n_max: None)
    assert schedules() == fast


def test_schedule_matches_frozen_reference_on_default_drops(default_drop_inputs):
    calls = default_drop_inputs[1]
    assert len(calls) >= 40
    for args in calls:
        assert link.schedule_users(*args) == _reference_schedule_users(*args)


def test_forced_search_matches_frozen_reference_on_default_drops(default_drop_inputs,
                                                                  monkeypatch):
    # the search on every call, as if no single user were a clear winner
    monkeypatch.setattr(link, "_clear_single", lambda alone, n_max: None)
    calls = default_drop_inputs[1]
    assert len(calls) == 59
    for args in calls:
        assert link.schedule_users(*args) == _reference_schedule_users(*args)


def test_single_user_shortcut_fires_on_default_drops(default_drop_inputs, monkeypatch):
    # the default scene almost always schedules one user, provably
    searched = _spy_search(monkeypatch)
    calls = default_drop_inputs[1]
    for args in calls:
        link.schedule_users(*args)
    assert len(calls) - len(searched) >= 0.9 * len(calls)


def _ceiling(n):
    return n * np.log2(1.0 + 1.0 / (link._PMI_LEAKAGE * (n - 1)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), b_g=st.integers(1, 4), log_sigma2=st.floats(-12.0, 3.0),
       log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_multi_user_sum_se_stays_below_the_ceiling(n, b_g, log_sigma2, log_scale, seed):
    rng = np.random.default_rng(seed)
    cross = 10.0 ** log_scale * (rng.standard_normal((6, n, n, b_g))
                                 + 1j * rng.standard_normal((6, n, n, b_g)))
    se = link._sum_se(cross, 10.0 ** log_sigma2)
    # below C(n) up to rounding: where RZF nulls every stream and sigma2 is
    # negligible, a set can reach C(n) in floating point
    assert np.all(se <= _ceiling(n) * (1.0 + 1e-12))
    assert link._multi_user_ceiling(n) == pytest.approx(
        max(_ceiling(k) for k in range(2, n + 1)), rel=1e-14)


@pytest.mark.parametrize("size", range(1, 9))
def test_sets_se_gives_each_set_the_same_bits_in_any_batch(size):
    # the call's set memo mixes estimates scored in batches of different
    # make-up, so a set's estimate must not depend on the batch it is scored in
    rng = np.random.default_rng(40 + size)
    for b_g in (1, 2, 4):
        cross = rng.standard_normal((10, 10, b_g)) + 1j * rng.standard_normal((10, 10, b_g))
        sets = [tuple(sorted(rng.choice(10, size=size, replace=False).tolist()))
                for _ in range(24)]
        alone = [link._sets_se(cross, [s], 0.3)[0] for s in sets]
        assert link._sets_se(cross, sets, 0.3) == alone
        order = rng.permutation(len(sets))
        assert link._sets_se(cross, [sets[i] for i in order], 0.3) == [alone[i] for i in order]
        for lo, hi in ((0, 2), (3, 8), (5, 20)):
            assert link._sets_se(cross, sets[lo:hi], 0.3) == alone[lo:hi]


def _assert_rzf_matches_reference(recon, gains, chosen, subset, users, sigma2):
    ps = link.build_precoders(recon, gains, chosen, subset, users, sigma2,
                              link.subband_map(recon.shape[1], recon.shape[1]))
    users, b_g = ps.users, subset.shape[2]
    blocks = np.stack([subset[chosen[u]] for u in users])
    np.testing.assert_array_equal(ps.analog, np.concatenate(list(blocks), axis=1))
    grams = np.einsum("itb,jtc->ijbc", np.conj(blocks), blocks)
    for s in range(recon.shape[1]):
        rows = np.stack([gains[u, s] * np.conj(recon[u, s]) for u in users])
        want = np.zeros((len(users) * b_g, len(users)), dtype=np.complex128)
        for j, col in enumerate(_reference_rzf_blocks(rows, grams, sigma2,
                                                      link.DIGITAL_PORTS)):
            want[j * b_g:(j + 1) * b_g, j] = col
        # column-wise: every column's error norm within 1e-12 of its norm
        err = np.linalg.norm(ps.digital[s] - want, axis=0)
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=0)), err


def test_rzf_columns_match_frozen_per_user_loop(monkeypatch):
    rng = np.random.default_rng(23)
    for _ in range(100):
        args, n_ports = _random_instance(rng)
        monkeypatch.setattr(link, "DIGITAL_PORTS", n_ports)
        _assert_rzf_matches_reference(*args)


def test_rzf_columns_match_frozen_loop_on_default_drops(default_drop_inputs):
    for recon, gains, chosen, subset, cand, sigma2 in default_drop_inputs[1]:
        users = link.schedule_users(recon, gains, chosen, subset, cand, sigma2)
        _assert_rzf_matches_reference(recon, gains, chosen, subset, users, sigma2)


# ------------- frozen per-RE reference of the batched ESSE scoring -------------
# transmit_and_score as it was before it was batched: one LMMSE solve per
# (user, t, k), with R summed cell by cell.

def _reference_transmit_and_score(h, sets, sigma2, alpha=1.0):
    c_cells, n_users, t_slots, k_sub, n_rx, n_t = h.shape
    eff = []
    for ps in sets:
        if len(ps.users) == 0:
            eff.append(np.zeros((k_sub, n_t, 0), dtype=np.complex128))
            continue
        scale = 1.0 / np.sqrt(len(ps.users) * k_sub * n_t)
        eff.append(np.stack([ps.analog @ ps.digital[ps.subband_of_k[k]] * scale
                             for k in range(k_sub)]))
    per_user_rate, total = {}, 0.0
    for c, ps in enumerate(sets):
        for j, u in enumerate(ps.users):
            rates = []
            for t in range(t_slots):
                for k in range(k_sub):
                    r = sigma2 * np.eye(n_rx, dtype=np.complex128)
                    for c2 in range(c_cells):
                        g = h[c2, u, t, k] @ eff[c2][k]
                        r += g @ np.conj(g.T)
                    v = h[c, u, t, k] @ eff[c][k][:, j]
                    q = float(np.real(np.conj(v) @ np.linalg.solve(r, v)))
                    q = min(q, 1.0 - 1e-15)
                    rates.append(np.log2(1.0 + q / (1.0 - q)))
            per_user_rate[u] = alpha * float(np.mean(rates))
            total += per_user_rate[u]
    counts = np.array([len(ps.users) for ps in sets], dtype=float)
    alloc = counts / counts.sum() if counts.sum() > 0 else counts
    return total, per_user_rate, alloc


def _assert_esse_matches_reference(h, sets, sigma2, alpha=1.0):
    rep = link.transmit_and_score(h, sets, sigma2, alpha=alpha)
    esse, rates, alloc = _reference_transmit_and_score(h, sets, sigma2, alpha)
    assert list(rep.per_user_rate) == list(rates)
    np.testing.assert_allclose(list(rep.per_user_rate.values()),
                               list(rates.values()), rtol=1e-12, atol=0)
    np.testing.assert_allclose(rep.esse, esse, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rep.allocation, alloc, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n_rx,t_slots", [(1, 1), (3, 2), (2, 2)])
def test_esse_matches_frozen_per_re_loop(n_rx, t_slots):
    # ragged schedules (3, 1, 0 and 2 users), an empty cell, K=6 over 3
    # subbands, and interference from every non-empty cell
    rng = np.random.default_rng(30 + n_rx)
    n_users, n_t, b_g, k_sub, s_b, sigma2 = 7, 8, 2, 6, 3, 0.05
    h = (rng.standard_normal((4, n_users, t_slots, k_sub, n_rx, n_t))
         + 1j * rng.standard_normal((4, n_users, t_slots, k_sub, n_rx, n_t)))
    sets = []
    for users in ([0, 2, 5], [4], [], [1, 6]):
        subset, recon, gains, chosen = _one_cell_setup(rng, n_users, n_t=n_t,
                                                       b_g=b_g, s_b=s_b)
        sets.append(link.build_precoders(recon, gains, chosen, subset, users,
                                         sigma2, link.subband_map(k_sub, s_b)))
    _assert_esse_matches_reference(h, sets, sigma2, alpha=0.875)
    # nobody scheduled anywhere
    rep = link.transmit_and_score(h[2:3], sets[2:3], sigma2)
    assert rep.esse == 0.0 and rep.per_user_rate == {}


def test_esse_exact_at_high_snr():
    # one user, N_R = 1, no interference: the per-RE rate is
    # log2(1 + |v|^2 / sigma2) even where q = |v|^2 / (sigma2 + |v|^2)
    # rounds to 1
    rng = np.random.default_rng(33)
    h, _ = _transmission(rng, n_users=1, n_rx=1)
    subset, recon, gains, chosen = _one_cell_setup(rng, 1)
    ps = link.build_precoders(recon, gains, chosen, subset, [0], 0.05,
                              subband_of_k=link.subband_map(4, 2))
    sigma2, k_sub, n_t = 1e-30, 4, 8
    rates = [np.log2(1.0 + np.abs(h[0, 0, 0, k] @ ps.analog
                                  @ ps.digital[ps.subband_of_k[k]])[0, 0] ** 2
                     / (k_sub * n_t) / sigma2) for k in range(k_sub)]
    rep = link.transmit_and_score(h, [ps], sigma2)
    np.testing.assert_allclose(rep.per_user_rate[0], np.mean(rates), rtol=1e-13)


def test_esse_accurate_from_low_to_high_snr():
    # cell 0 serves user 0 along v, cell 1 serves user 1 and reaches user 0
    # along u; closed form v^H (sigma2 I + u u^H)^-1 v without cancellation
    v, u = np.array([1.0 + 0.5j, -0.3 + 0.2j]), np.array([0.4 - 0.1j, 0.9 + 0.7j])
    v_perp = v - u * (np.vdot(u, v) / np.vdot(u, u))
    nv, nu, nvp = (float(np.vdot(a, a).real) for a in (v, u, v_perp))
    # one port, one RE, NT = 2: each cell's transmit column is e_0 / sqrt(2)
    h = np.zeros((2, 2, 1, 1, 2, 2), dtype=np.complex128)
    h[0, 0, 0, 0, :, 0], h[1, 0, 0, 0, :, 0] = np.sqrt(2.0) * v, np.sqrt(2.0) * u
    h[1, 1, 0, 0, :, 0] = np.sqrt(2.0) * u
    sets = [link.PrecoderSet(analog=np.eye(2)[:, :1], digital=np.ones((1, 1, 1)),
                             users=[u_], subband_of_k=np.zeros(1, int))
            for u_ in (0, 1)]
    for sigma2 in 10.0 ** np.arange(2, -13, -1):
        want = (sigma2 * nv + nu * nvp) / (sigma2 * (sigma2 + nu))
        rep = link.transmit_and_score(h, sets, sigma2)
        np.testing.assert_allclose(rep.per_user_rate[0], np.log2(1.0 + want),
                                   rtol=1e-13, err_msg=f"sigma2={sigma2}")


@pytest.mark.parametrize("streams", [1, 2])
def test_esse_exact_with_fewer_streams_than_receive_antennas(streams):
    # N_R = 4 against one or two scheduled streams (M < N_R): sigma2 I + X X^H
    # is singular in floating point once sigma2 is tiny, yet the rates keep
    # their closed forms.  Cell 0 serves user 0 along v; with two streams,
    # cell 1 serves user 1 along u and reaches user 0 along u, so user 0 sees
    # v^H (sigma2 I + u u^H)^-1 v and user 1 sees |u|^2 / sigma2.
    rng = np.random.default_rng(34)
    v, u = (rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(2))
    v_perp = v - u * (np.vdot(u, v) / np.vdot(u, u))
    nv, nu, nvp = (float(np.vdot(a, a).real) for a in (v, u, v_perp))
    # one port, one RE, NT = 2: each cell's transmit column is e_0 / sqrt(2)
    h = np.zeros((streams, streams, 1, 1, 4, 2), dtype=np.complex128)
    h[0, 0, 0, 0, :, 0] = np.sqrt(2.0) * v
    if streams == 2:
        h[1, :, 0, 0, :, 0] = np.sqrt(2.0) * u
    sets = [link.PrecoderSet(analog=np.eye(2)[:, :1], digital=np.ones((1, 1, 1)),
                             users=[c], subband_of_k=np.zeros(1, int))
            for c in range(streams)]
    for sigma2 in 10.0 ** np.arange(2, -31, -1):
        want = ([(sigma2 * nv + nu * nvp) / (sigma2 * (sigma2 + nu)), nu / sigma2]
                if streams == 2 else [nv / sigma2])
        rep = link.transmit_and_score(h, sets, sigma2)
        np.testing.assert_allclose(list(rep.per_user_rate.values()),
                                   np.log2(1.0 + np.array(want)), rtol=1e-13,
                                   err_msg=f"sigma2={sigma2}")


def test_esse_matches_frozen_loop_on_default_drops():
    config = ch.ScenarioConfig()
    dims = cli.dims_from({})
    ssb, cs = nbl.dft_codebooks(config.geometry, dims)
    ssb, csirs = [ssb.beams] * config.c_cells, [cs.precoders] * config.c_cells
    calls = []
    score = link.transmit_and_score

    def capture(h, sets, sigma2, alpha=1.0):
        calls.append((h, sets, sigma2, alpha))
        return score(h, sets, sigma2, alpha=alpha)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(link, "transmit_and_score", capture)
        for i in range(3):
            mx.evaluate_drop(config, cli.settings_from({}), ssb, csirs,
                             11 * 1000003 + i)
    assert len(calls) == 3
    for h, sets, sigma2, alpha in calls:
        assert sum(len(ps.users) for ps in sets) > 1  # scored under interference
        _assert_esse_matches_reference(h, sets, sigma2, alpha)
