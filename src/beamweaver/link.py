"""Data-plane link layer after beam training.

Beamformed channel estimation (LS + MMSE shrinkage), type-II PMI
quantization, regularized zero-forcing hybrid precoding, greedy user
scheduling and the effective sum spectral efficiency (ESSE) accounting.

Everything here is plain NumPy: codebook gradients only flow through the
beam-training stage, the data plane is an evaluation-time scoring model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import lmmse_filter, lmmse_sinr_array
from .errors import ConfigError, ShapeError

DIGITAL_PORTS = 32  # digital port budget per cell
PORT_OVERSAMPLING = 4  # of the PMI's DFT basis over the B_g ports
PMI_AMP_BITS = 3  # per wideband amplitude
PMI_PHASE_BITS = 3  # per subband co-phase
_PMI_LEAKAGE = 0.1  # scheduler model: per-stream mis-null leakage fraction


@dataclass
class PmiFeedback:
    """Type-II style feedback: beams + wideband amplitudes + co-phases."""

    beams: np.ndarray  # (U, L_CSI) port-domain DFT column indices
    amplitudes: np.ndarray  # (U, L_CSI) quantized, max-normalized
    cophases: np.ndarray  # (U, L_CSI, S_B) quantized phases [rad]
    gains: np.ndarray  # (U, S_B) dominant singular value of the estimate


@dataclass
class PrecoderSet:
    """Hybrid precoder for one cell: analog concatenation + digital blocks."""

    analog: np.ndarray  # (NT, U_a * B_g)
    digital: np.ndarray  # (S_B, U_a * B_g, U_a) block-diagonal, unit columns
    users: list[int]  # scheduled user indices, ascending


@dataclass
class EsseReport:
    esse: float
    per_user_rate: dict  # user index -> bits/s/Hz (overhead-scaled)
    allocation: np.ndarray  # per-cell fraction of scheduled users


def subband_map(k_subcarriers: int, s_b: int) -> np.ndarray:
    """Uniform subband index per subcarrier."""
    if s_b < 1 or s_b > k_subcarriers:
        raise ConfigError(f"subband count {s_b} invalid for K={k_subcarriers}")
    return np.minimum((np.arange(k_subcarriers) * s_b) // k_subcarriers, s_b - 1)


def estimate_channel(y: np.ndarray, sigma2: float, s_b: int) -> np.ndarray:
    """LS per-RE estimate, subband averaging, then MMSE shrinkage.

    y: (U, K, N_R, B_g) received pilot blocks, one per user from its serving
    cell.  The B_g port pilots are orthonormal (an identity pilot matrix), so
    each RE's LS estimate is its received block.  Before averaging, it is
    phase-aligned to the running subband average (a propagation-delay ramp
    rotates the channel from subcarrier to subcarrier; a plain mean would
    self-cancel).  Shrinkage factor rho/(rho+1) uses a per-subband sample SNR
    rho taken from the aligned residual power when more than one RE is
    averaged, else from the supplied sigma2.  Returns the per (user,
    subband) estimated N_R x B_g beamformed channel, (U, S_B, N_R, B_g).
    """
    h_ls = np.asarray(y, dtype=np.complex128)  # per-RE least squares
    if h_ls.ndim != 4:
        raise ShapeError(f"pilot tensor must be 4-D, got {h_ls.shape}")
    n_users, k_sub, n_rx, b_g = h_ls.shape
    sb_of_k = subband_map(k_sub, s_b)
    h_est = np.zeros((n_users, s_b, n_rx, b_g), dtype=np.complex128)
    for s in range(s_b):
        ks = np.nonzero(sb_of_k == s)[0]
        n_re = len(ks)
        acc, aligned = _phase_aligned_sum(h_ls[:, ks])  # (U, N_R, B_g), (U, n_re, N_R, B_g)
        h_avg = acc / n_re  # (U, N_R, B_g)
        if n_re > 1:
            resid = aligned - h_avg[:, None]
            s2_hat = (np.abs(resid) ** 2).mean(axis=(1, 2, 3)) * n_re / (n_re - 1)
        else:
            s2_hat = np.full(n_users, float(sigma2))
        est_noise = s2_hat / n_re
        p_tot = (np.abs(h_avg) ** 2).mean(axis=(1, 2))
        p_sig = np.maximum(p_tot - est_noise, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.where(est_noise > 0, p_sig / np.where(est_noise > 0, est_noise, 1.0),
                           np.inf)
        finite = np.where(np.isinf(rho), 0.0, rho)
        shrink = np.where(np.isinf(rho), 1.0, finite / (finite + 1.0))
        h_est[:, s] = shrink[:, None, None] * h_avg
    return h_est


def port_dft(b_g: int) -> np.ndarray:
    """Oversampled DFT basis over the B_g digital ports: (B_g, O*B_g)."""
    n = np.arange(b_g)[:, None]
    m = np.arange(PORT_OVERSAMPLING * b_g)[None, :]
    return np.exp(2j * np.pi * n * m / (PORT_OVERSAMPLING * b_g)) / np.sqrt(b_g)


def quantize_pmi(h: np.ndarray, l_csi: int) -> tuple[PmiFeedback, np.ndarray]:
    """Quantize the dominant beamformed direction per subband of the
    (U, S_B, N_R, B_g) channel estimate ``h``.

    Beam selection is wideband (largest summed projections on ``port_dft``);
    amplitudes are wideband, max-normalized, of PMI_AMP_BITS; co-phases are
    per subband, of PMI_PHASE_BITS.  Returns (feedback, recon) with recon
    of shape (U, S_B, B_g), unit-norm rows; an all-zero estimate maps to
    the first basis column.
    """
    n_users, s_b, n_rx, b_g = h.shape
    if l_csi > b_g * PORT_OVERSAMPLING:
        raise ConfigError("l_csi exceeds the oversampled basis size")
    basis = port_dft(b_g)
    nonzero = h.any(axis=(1, 2, 3))
    # leading right-singular vector and singular value per (user, subband)
    _, sv, vh = np.linalg.svd(h)
    vecs = np.conj(vh[:, :, 0])  # (U, S_B, B_g)
    gains = np.where(nonzero[:, None], sv[:, :, 0], 0.0)
    proj = np.conj(basis.T) @ np.swapaxes(vecs, 1, 2)  # (U, O*B_g, S_B)
    score = (np.abs(proj) ** 2).sum(axis=2)
    order = np.argsort(-score, axis=1, kind="stable")[:, :l_csi]
    beams = np.where(nonzero[:, None], np.sort(order, axis=1), 0)
    sel = np.take_along_axis(proj, beams[:, :, None], axis=1)  # (U, L_CSI, S_B)
    a = np.sqrt((np.abs(sel) ** 2).mean(axis=2))
    peak = a.max(axis=1)
    valid = nonzero & (peak > 0)
    a = a / np.where(valid, peak, 1.0)[:, None]
    levels = 2 ** PMI_AMP_BITS - 1
    a = np.round(a * levels) / levels
    # global phase fixed so the strongest beam co-phase is zero
    ref = np.argmax(a, axis=1)
    ph = np.angle(sel * np.conj(sel[np.arange(n_users), ref])[:, None, :])
    step = 2.0 * np.pi / (2 ** PMI_PHASE_BITS)
    ph = np.ceil(ph / step - 0.5) * step
    amps = np.where(valid[:, None], a, 0.0)
    cophases = np.where(valid[:, None, None], ph, 0.0)
    # recon[u, s] = sum_l a[u, l] e^{j ph[u, l, s]} basis[:, beams[u, l]]
    coef = a[:, None, None, :] * np.exp(1j * np.swapaxes(ph, 1, 2))[:, :, None, :]
    v = (coef * np.swapaxes(basis[:, beams], 0, 1)[:, None]).sum(axis=3)
    norms = np.where(valid[:, None, None], np.linalg.norm(v, axis=2, keepdims=True), 1.0)
    recon = np.where(valid[:, None, None], v / norms, np.eye(b_g)[0])  # zero -> e_0
    fb = PmiFeedback(beams=beams, amplitudes=amps, cophases=cophases, gains=gains)
    return fb, recon


def _cross_channels(rows: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Effective cross-channels E[..., i, u] = rows[..., i, :] @ B_i^H B_u.

    rows: (..., U, B_g) estimated channel row of each user in its own analog
    block; blocks: (U, NT, B_g) analog block B_u of each user.  E[i, u] is
    user i's channel seen through user u's block: (..., U, U, B_g).
    """
    grams = np.einsum("itb,utc->iubc", np.conj(blocks), blocks)  # B_i^H B_u
    return (rows[..., :, None, None, :] @ grams)[..., 0, :]


def _rzf_columns(cross: np.ndarray, sigma2: float) -> np.ndarray:
    """Unit-norm RZF digital columns for a batch of schedules.

    cross: (..., U_a, U_a, B_g) effective cross-channels of each schedule.
    Column u is (H_u^H H_u + U_a * DIGITAL_PORTS * sigma2 * I)^-1 H_u^H e_u
    with H_u = cross[..., :, u, :]: the ``lmmse_filter`` of X = H_u^H for
    own column u, exact down to the zero-forcing limit.  It is then
    unit-normalized (a zero solution stays zero).  Returns (..., U_a, B_g).
    """
    n_a = cross.shape[-2]
    x = np.conj(np.moveaxis(cross, -3, -1))  # x[..., u, :, i] = conj(H_u[i])
    f = lmmse_filter(x, np.arange(n_a)[:, None], n_a * DIGITAL_PORTS * sigma2)[..., 0]
    norm = np.linalg.norm(f, axis=-1, keepdims=True)
    return np.where(norm > 0, f / np.where(norm > 0, norm, 1.0), 0.0)


def build_precoders(recon: np.ndarray, gains: np.ndarray, chosen: np.ndarray,
                    subset_precoders: np.ndarray, users: list[int],
                    sigma2: float) -> PrecoderSet:
    """Assemble one cell's hybrid precoder for the scheduled users.

    recon/gains: PMI reconstruction (U, S_B, B_g) and (U, S_B);
    chosen: per-user CSI-RS resource; subset_precoders: (N_CSI, NT, B_g)
    transmitted subset stack.  Digital blocks are per-subband RZF columns
    with regularization U_a * DIGITAL_PORTS * sigma2, unit-normalized,
    assembled block-diagonally.
    """
    users = sorted(int(u) for u in users)
    n_a = len(users)
    n_t, b_g = subset_precoders.shape[1:]
    s_b = recon.shape[1]
    if n_a == 0:
        return PrecoderSet(analog=np.zeros((n_t, 0), complex),
                           digital=np.zeros((s_b, 0, 0), complex), users=[])
    blocks = subset_precoders[np.asarray(chosen)[users]]  # (U_a, NT, B_g)
    analog = np.swapaxes(blocks, 0, 1).reshape(n_t, n_a * b_g)
    rows = np.swapaxes(gains[users, :, None] * np.conj(recon[users]), 0, 1)
    cols = _rzf_columns(_cross_channels(rows, blocks), sigma2)
    digital = np.zeros((s_b, n_a * b_g, n_a), dtype=np.complex128)
    digital[:, np.arange(n_a * b_g), np.repeat(np.arange(n_a), b_g)] = \
        cols.reshape(s_b, n_a * b_g)
    return PrecoderSet(analog=analog, digital=digital, users=users)


def _phase_aligned_sum(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum of x[:, i] over axis 1, each term phase-aligned to the sum so far.

    A propagation-delay phase ramp rotates x from term to term; a plain sum
    then self-cancels.  Each term is rotated by the conjugate phase of its
    inner product with the running sum (a zero inner product leaves it as
    is) before it is added.  Returns (sum, aligned terms stacked on axis 1).
    """
    flat = x.reshape(x.shape[0], x.shape[1], -1)  # (U, N, D)
    acc = flat[:, 0].copy()
    aligned = [flat[:, 0]]
    for i in range(1, flat.shape[1]):
        z = np.einsum("ud,ud->u", np.conj(acc), flat[:, i])
        mag = np.abs(z)
        phase = np.where(mag > 0, z / np.where(mag > 0, mag, 1.0), 1.0)
        aligned.append(np.conj(phase)[:, None] * flat[:, i])
        acc += aligned[-1]
    return acc.reshape(x[:, 0].shape), np.stack(aligned, axis=1).reshape(x.shape)


def _wideband_profile(recon: np.ndarray) -> np.ndarray:
    """Coherent wideband average of per-subband PMI directions: (U, B_g).

    The subbands' directions are summed phase-aligned, then normalized.
    """
    acc = _phase_aligned_sum(recon)[0]
    norms = np.linalg.norm(acc, axis=1, keepdims=True)
    return np.where(norms > 0, acc / np.where(norms > 0, norms, 1.0), acc)


def _sum_se(cross: np.ndarray, sigma2: float) -> np.ndarray:
    """Model-based sum SE of a batch of schedules: (..., U_a, U_a, B_g) -> (...)."""
    n_a = cross.shape[-2]
    cols = _rzf_columns(cross, sigma2)
    g2 = np.abs(np.einsum("...ivb,...vb->...iv", cross, cols)) ** 2
    p = 1.0 / n_a  # equal power split across scheduled users
    sig = p * np.diagonal(g2, axis1=-2, axis2=-1)
    intf = p * g2.sum(axis=-1) - sig
    # Residual-leakage floor: RZF nulls are computed from quantized rank-1
    # PMI, so each co-scheduled stream leaks a fraction of the victim's own
    # channel power back as interference.  Without this de-rating the model
    # predicts near-perfect nulling and over-packs correlated users.
    leak = _PMI_LEAKAGE * (n_a - 1) * sig
    return np.log2(1.0 + sig / (intf + leak + sigma2)).sum(axis=-1)


def _candidate_cross(cand: list[int], recon_wb: np.ndarray, gains_wb: np.ndarray,
                     chosen: np.ndarray, subset_precoders: np.ndarray) -> np.ndarray:
    """Cross-channels between candidates from their wideband PMI rows."""
    cand = list(cand)
    rows = gains_wb[cand, None] * np.conj(recon_wb[cand])
    return _cross_channels(rows, subset_precoders[np.asarray(chosen)[cand]])


def _single_se(recon: np.ndarray, gains: np.ndarray, blocks: np.ndarray,
               sigma2: float) -> np.ndarray:
    """Model SE of each user scheduled alone, log2(1 + |E_uu|^2 / sigma2).

    recon/gains: the users' PMI (U, S_B, B_g) and (U, S_B); blocks: their
    analog blocks (U, NT, B_g).  E_uu = row_u B_u^H B_u needs only the
    user's own block, O(U) where ``_candidate_cross`` is O(U^2).  It is what
    ``_sum_se`` gives a one-user set (its RZF column is the matched filter),
    up to rounding.
    """
    rows = gains.mean(axis=1)[:, None] * np.conj(_wideband_profile(recon))
    own = np.swapaxes(blocks, 1, 2) @ (np.conj(blocks) @ rows[:, :, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log2(1.0 + (np.abs(own) ** 2).sum(axis=(1, 2)) / sigma2)


def _multi_user_ceiling(n_max: int) -> float:
    """Bound above the model sum SE of every set of 2..n_max users.

    With leakage L > 0, each of n users' SINR in ``_sum_se`` is
    sig / (intf + L (n-1) sig + sigma2) < 1 / (L (n-1)), so the set scores
    below C(n) = n log2(1 + 1 / (L (n-1))).  -inf when n_max < 2.
    """
    return max((n * math.log2(1.0 + 1.0 / (_PMI_LEAKAGE * (n - 1)))
                for n in range(2, n_max + 1)), default=-math.inf)


def _clear_single(alone: np.ndarray, n_max: int) -> int | None:
    """Position of the single user the multi-start search must return, if
    its estimate is finite and beats 0, every other single and the ceiling
    of every reachable multi-user set by a relative 1e-9 plus 1e-12 bits;
    else None.
    """
    se = alone.tolist()
    if _PMI_LEAKAGE <= 0 or not all(map(math.isfinite, se)):
        return None
    top = se.index(max(se))
    ceiling = max(se[:top] + se[top + 1:] + [0.0, _multi_user_ceiling(n_max)])
    return top if se[top] > ceiling * (1.0 + 1e-9) + 1e-12 else None


def _sets_se(cross: np.ndarray, sets: list[tuple], sigma2: float) -> list[float]:
    """Sum SE of equal-size candidate sets (positions into ``cross``)."""
    idx = np.array(sets)
    return _sum_se(cross[idx[:, :, None], idx[:, None, :]], sigma2).tolist()


def schedule_users(recon: np.ndarray, gains: np.ndarray, chosen: np.ndarray,
                   subset_precoders: np.ndarray, candidates: list[int],
                   sigma2: float) -> list[int]:
    """Multi-start greedy schedule maximizing estimated sum SE.

    One greedy growth per forced first user (adding users while the estimate
    improves and the digital port budget len(schedule) * B_g <= DIGITAL_PORTS
    allows), each polished by drop and one-for-one swap moves until no such
    move improves the estimate; the best schedule over all starts wins, the
    first in start order on a tie.

    The search runs over candidate positions, one start after another; the
    trials of one growth step or one swap are scored as a batch, and each
    set's estimate is memoised for the duration of the call.

    Before the search, every candidate is scored alone (``_single_se``,
    O(U)), and the search is skipped when its result is already known.
    With leakage L > 0, a set of n >= 2 users scores below
    C(n) = n log2(1 + 1 / (L (n-1))) (6.92, 7.75, ..., 10.24 bits for
    n = 2..8 at L = 0.1), and a schedule never holds more than
    n_max = min(len(candidates), DIGITAL_PORTS // B_g) users: growth checks the
    port budget and polish keeps or shrinks a schedule.  If the best single
    user u* has a finite estimate above 0, above every other single and
    above C(n) for n = 2..n_max, then the start at u* never moves (every
    move it could make scores lower, and a move needs a strictly higher
    score), every other start ends at a set that scores below it or at
    [u*], and [u*] is returned.  The comparisons carry a margin of a
    relative 1e-9 plus 1e-12 bits.  It covers the rounding between
    ``_single_se`` and the search's own single-user estimate, relative in
    the SINR and absolute in log2(1 + SINR) at a tiny SINR, so the schedule
    is the search's bit for bit (given set estimates that do not overflow
    to NaN).  The search, and the O(U^2) ``_candidate_cross`` it needs, runs
    only otherwise.
    """
    b_g = subset_precoders.shape[2]
    cand = sorted(int(u) for u in candidates)
    if not cand or b_g > DIGITAL_PORTS:
        return []
    alone = _single_se(recon[cand], gains[cand],
                       subset_precoders[np.asarray(chosen)[cand]], sigma2)
    top = _clear_single(alone, min(len(cand), DIGITAL_PORTS // b_g))
    if top is not None:
        return [cand[top]]
    cross = _candidate_cross(cand, _wideband_profile(recon), gains.mean(axis=1),
                             chosen, subset_precoders)
    memo: dict[tuple, float] = {}

    def scores(sets):  # sets of one size: one _sets_se batch for the new ones
        keys = [tuple(sorted(s)) for s in sets]
        new = [k for k in dict.fromkeys(keys) if k not in memo]
        if new:
            memo.update(zip(new, _sets_se(cross, new, sigma2)))
        return [memo[k] for k in keys]

    def best_trial(base, extra):
        trial = zip(scores([base + [u] for u in extra]), extra)
        return max(trial, key=lambda t: (t[0], -t[1]))

    best_se, best_sched = 0.0, []
    for first, se in enumerate(scores([[u] for u in range(len(cand))])):
        schedule = [first]
        remaining = [u for u in range(len(cand)) if u != first]
        while remaining and (len(schedule) + 1) * b_g <= DIGITAL_PORTS:
            se_new, pick = best_trial(schedule, remaining)
            if se_new <= se:
                break
            se = se_new
            schedule.append(pick)
            remaining.remove(pick)
        improved = True
        while improved:  # polish: take the first improving drop or swap
            improved = False
            others = [u for u in range(len(cand)) if u not in schedule]
            for out in sorted(schedule):
                rest = [u for u in schedule if u != out]
                if len(schedule) > 1 and (se_rest := scores([rest])[0]) > se:
                    schedule, se, improved = rest, se_rest, True
                    break
                if others and (trial := best_trial(rest, others))[0] > se:
                    schedule, se, improved = rest + [trial[1]], trial[0], True
                    break
        if se > best_se:
            best_se, best_sched = se, schedule
    return [cand[i] for i in sorted(best_sched)]


def data_fraction(l_max: int, n_csi: int, k_ssb: int, k_subcarriers: int,
                  t_period: int) -> float:
    """Fraction of the period left for data after beam-management overhead."""
    used = l_max * k_ssb / k_subcarriers + n_csi
    return max(0.0, 1.0 - used / t_period)


def transmit_and_score(h: np.ndarray, sets: list[PrecoderSet],
                       sigma2: float, alpha: float) -> EsseReport:
    """Score the data transmission: per-user LMMSE SINR and ESSE.

    Per-user effective transmit column: analog @ digital block of the RE's
    subband (``subband_map`` over the digital blocks' S_B), scaled by
    1/sqrt(U_a * K * NT) (equal power split, broadcast-equivalent total
    power).  Every scheduled user is scored at every RE in one batch by
    ``autodiff.lmmse_sinr_array``, with every cell's scheduled columns as
    interference; the per-RE rate is log2(1 + SINR).  The per-user rate is
    the mean over REs, scaled by the data fraction ``alpha`` (see
    ``data_fraction``).
    """
    hv = np.asarray(h, dtype=np.complex128)
    c_cells, n_users, t_slots, k_sub, n_rx, n_t = hv.shape
    if len(sets) != c_cells:
        raise ShapeError("one precoder set per cell required")
    users = np.array([u for ps in sets for u in ps.users], dtype=np.intp)
    # column j of x is scored user j's own stream; every column reaches everyone
    x = np.empty((len(users), t_slots, k_sub, n_rx, len(users)), dtype=np.complex128)
    start = 0
    for c, ps in enumerate(sets):
        n_a = len(ps.users)
        if n_a == 0:
            continue
        # (K, NT, U_a) transmit matrices, then G = H W for every scored user
        scale = 1.0 / np.sqrt(n_a * k_sub * n_t)
        w = ps.analog @ ps.digital[subband_map(k_sub, ps.digital.shape[0])] * scale
        x[..., start:start + n_a] = hv[c, users] @ w  # (U_s, T, K, N_R, U_a)
        start += n_a
    own = np.arange(len(users))[:, None, None, None]
    sinr = lmmse_sinr_array(x, own, sigma2)[..., 0]
    rate = np.log2(1.0 + sinr).reshape(len(users), t_slots * k_sub)
    rates = alpha * rate.mean(axis=1)
    counts = np.array([len(ps.users) for ps in sets], dtype=float)
    alloc = counts / counts.sum() if counts.sum() > 0 else counts
    return EsseReport(esse=float(rates.sum()),
                      per_user_rate=dict(zip(users.tolist(), rates.tolist())),
                      allocation=alloc)
