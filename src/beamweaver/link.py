"""Data-plane link layer after beam training.

Beamformed channel estimation (LS + MMSE shrinkage), type-II PMI
quantization, regularized zero-forcing hybrid precoding, greedy user
scheduling and the effective sum spectral efficiency (ESSE) accounting.

Everything here is plain NumPy: codebook gradients only flow through the
beam-training stage, the data plane is an evaluation-time scoring model.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import cholesky_inverse
from .channel import ChannelTensor
from .errors import ConfigError, ShapeError

DIGITAL_PORTS = 32  # digital port budget per cell
_PMI_LEAKAGE = 0.1  # scheduler model: per-stream mis-null leakage fraction


@dataclass
class BeamformedChannelEstimate:
    """Per (user, subband) estimated N_R x B_g beamformed channel."""

    h_est: np.ndarray  # (U, S_B, N_R, B_g)
    noise_var: np.ndarray  # (U, S_B) residual-based noise estimate
    subband_of_k: np.ndarray  # (K,) subband index per subcarrier


@dataclass
class PmiFeedback:
    """Type-II style feedback: beams + wideband amplitudes + co-phases."""

    beams: np.ndarray  # (U, L_CSI) port-domain DFT column indices
    amplitudes: np.ndarray  # (U, L_CSI) quantized, max-normalized
    cophases: np.ndarray  # (U, L_CSI, S_B) quantized phases [rad]
    gains: np.ndarray  # (U, S_B) dominant singular value of the estimate
    rank: int = 1


@dataclass
class PrecoderSet:
    """Hybrid precoder for one cell: analog concatenation + digital blocks."""

    analog: np.ndarray  # (NT, U_a * B_g)
    digital: np.ndarray  # (S_B, U_a * B_g, U_a) block-diagonal, unit columns
    users: list[int]  # scheduled user indices, ascending
    b_g: int
    subband_of_k: np.ndarray


@dataclass
class EsseReport:
    esse: float
    per_user_rate: dict  # user index -> bits/s/Hz (overhead-scaled)
    allocation: np.ndarray  # per-cell fraction of scheduled users
    signal_power: dict  # user -> mean desired power (linear)
    int_noise_power: dict  # user -> implied interference+noise power
    data_fraction: float
    t_bm: tuple = ()
    k_bm: tuple = ()


def subband_map(k_subcarriers: int, s_b: int) -> np.ndarray:
    """Uniform subband index per subcarrier."""
    if s_b < 1 or s_b > k_subcarriers:
        raise ConfigError(f"subband count {s_b} invalid for K={k_subcarriers}")
    return np.minimum((np.arange(k_subcarriers) * s_b) // k_subcarriers, s_b - 1)


def estimate_channel(y: np.ndarray, s_tr: np.ndarray, sigma2: float,
                     s_b: int) -> BeamformedChannelEstimate:
    """LS per-RE estimate, subband averaging, then MMSE shrinkage.

    y: (U, K, N_R, B_g) received pilot blocks; s_tr: (B_g, B_g) pilot matrix
    (orthonormal columns).  Before averaging, each RE's LS estimate is
    phase-aligned to the running subband average (a propagation-delay ramp
    rotates the channel from subcarrier to subcarrier; a plain mean would
    self-cancel).  Shrinkage factor rho/(rho+1) uses a per-subband sample SNR
    rho taken from the aligned residual power when more than one RE is
    averaged, else from the supplied sigma2.
    """
    y = np.asarray(y, dtype=np.complex128)
    s_tr = np.asarray(s_tr, dtype=np.complex128)
    if y.ndim != 4:
        raise ShapeError(f"pilot tensor must be 4-D, got {y.shape}")
    n_users, k_sub, n_rx, b_g = y.shape
    if np.linalg.matrix_rank(s_tr) < b_g:
        raise ConfigError("pilot matrix is rank deficient")
    sb_of_k = subband_map(k_sub, s_b)
    s_pinv = np.linalg.pinv(s_tr)
    h_ls = y @ s_pinv  # per-RE least squares
    h_est = np.zeros((n_users, s_b, n_rx, b_g), dtype=np.complex128)
    noise_var = np.zeros((n_users, s_b))
    for s in range(s_b):
        ks = np.nonzero(sb_of_k == s)[0]
        n_re = len(ks)
        sub = h_ls[:, ks]  # (U, n_re, N_R, B_g)
        acc = sub[:, 0].copy()
        aligned = [sub[:, 0]]
        for i in range(1, n_re):
            z = np.einsum("urb,urb->u", np.conj(acc), sub[:, i])
            mag = np.abs(z)
            phase = np.where(mag > 0, z / np.where(mag > 0, mag, 1.0), 1.0)
            aligned.append(np.conj(phase)[:, None, None] * sub[:, i])
            acc += aligned[-1]
        h_avg = acc / n_re  # (U, N_R, B_g)
        if n_re > 1:
            resid = np.stack(aligned, axis=1) - h_avg[:, None]
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
        noise_var[:, s] = est_noise
    return BeamformedChannelEstimate(h_est=h_est, noise_var=noise_var,
                                     subband_of_k=sb_of_k)


def port_dft(b_g: int, oversampling: int = 4) -> np.ndarray:
    """Oversampled DFT basis over the B_g digital ports: (B_g, O*B_g)."""
    n = np.arange(b_g)[:, None]
    m = np.arange(oversampling * b_g)[None, :]
    return np.exp(2j * np.pi * n * m / (oversampling * b_g)) / np.sqrt(b_g)


def _dominant_right_vector(h: np.ndarray) -> tuple[np.ndarray, float]:
    """Leading right-singular vector and singular value of an N_R x B_g matrix."""
    _, sv, vh = np.linalg.svd(h)
    return np.conj(vh[0]), float(sv[0])


def quantize_pmi(estimate: BeamformedChannelEstimate, l_csi: int = 4,
                 oversampling: int = 4, amp_bits: int | None = 3,
                 phase_bits: int | None = 3) -> tuple[PmiFeedback, np.ndarray]:
    """Quantize the dominant beamformed direction per subband.

    Beam selection is wideband (largest summed projections); amplitudes are
    wideband and max-normalized; co-phases are per subband.  amp_bits or
    phase_bits of None mean unquantized.  Returns (feedback, recon) with
    recon of shape (U, S_B, B_g), unit-norm rows; an all-zero estimate maps
    to the first basis column.
    """
    h = estimate.h_est
    n_users, s_b, n_rx, b_g = h.shape
    if l_csi > b_g * oversampling:
        raise ConfigError("l_csi exceeds the oversampled basis size")
    basis = port_dft(b_g, oversampling)
    beams = np.zeros((n_users, l_csi), dtype=int)
    amps = np.zeros((n_users, l_csi))
    cophases = np.zeros((n_users, l_csi, s_b))
    gains = np.zeros((n_users, s_b))
    recon = np.zeros((n_users, s_b, b_g), dtype=np.complex128)
    for u in range(n_users):
        if not h[u].any():
            recon[u, :, 0] = 1.0  # degenerate zero estimate
            continue
        vecs = np.zeros((s_b, b_g), dtype=np.complex128)
        for s in range(s_b):
            v, g = _dominant_right_vector(h[u, s])
            vecs[s], gains[u, s] = v, g
        proj = np.conj(basis.T) @ vecs.T  # (O*B_g, S_B)
        score = (np.abs(proj) ** 2).sum(axis=1)
        order = np.argsort(-score, kind="stable")[:l_csi]
        beams[u] = np.sort(order)
        sel = proj[beams[u]]  # (L_CSI, S_B)
        a = np.sqrt((np.abs(sel) ** 2).mean(axis=1))
        peak = a.max()
        if peak > 0:
            a = a / peak
            if amp_bits is not None:
                levels = 2 ** amp_bits - 1
                a = np.round(a * levels) / levels
            # global phase fixed so the strongest beam co-phase is zero
            ref = int(np.argmax(a))
            ph = np.angle(sel * np.conj(sel[ref]))
            if phase_bits is not None:
                step = 2.0 * np.pi / (2 ** phase_bits)
                ph = np.ceil(ph / step - 0.5) * step
            amps[u], cophases[u] = a, ph
            for s in range(s_b):
                w = (a * np.exp(1j * ph[:, s]))[None, :] * basis[:, beams[u]]
                v = w.sum(axis=1)
                recon[u, s] = v / np.linalg.norm(v)
        else:
            recon[u, :, 0] = 1.0  # degenerate zero estimate
    fb = PmiFeedback(beams=beams, amplitudes=amps, cophases=cophases, gains=gains)
    return fb, recon


def _rzf_blocks(rows: np.ndarray, grams: np.ndarray, sigma2: float,
                n_ports: int) -> np.ndarray:
    """Per-user RZF columns from estimated rank-1 rows.

    rows: (U_a, B_g) estimated channel row of each user in its own analog
    block; grams: (U_a, U_a, B_g, B_g) with grams[i, u] mapping block u's
    coordinates into user i's row space (analog cross-coupling B_i^H B_u).
    Returns unit-norm (U_a, B_g) digital columns.
    """
    n_a, b_g = rows.shape
    cols = np.zeros((n_a, b_g), dtype=np.complex128)
    reg = n_a * n_ports * sigma2
    for u in range(n_a):
        h_u = np.stack([rows[i] @ grams[i, u] for i in range(n_a)])  # (U_a, B_g)
        m = np.conj(h_u.T) @ h_u + reg * np.eye(b_g)
        f = cholesky_inverse(m) @ np.conj(h_u[u])
        norm = np.linalg.norm(f)
        cols[u] = f / norm if norm > 0 else 0.0
    return cols


def build_precoders(recon: np.ndarray, gains: np.ndarray, chosen: np.ndarray,
                    subset_precoders: np.ndarray, users: list[int],
                    sigma2: float, subband_of_k: np.ndarray,
                    n_ports: int = DIGITAL_PORTS) -> PrecoderSet:
    """Assemble one cell's hybrid precoder for the scheduled users.

    recon/gains: PMI reconstruction (U, S_B, B_g) and (U, S_B);
    chosen: per-user CSI-RS resource; subset_precoders: (N_CSI, NT, B_g)
    transmitted subset stack.  Digital blocks are per-subband RZF columns
    with regularization U_a * n_ports * sigma2, unit-normalized, assembled
    block-diagonally.
    """
    users = sorted(int(u) for u in users)
    n_a = len(users)
    b_g = subset_precoders.shape[2]
    s_b = recon.shape[1]
    if n_a == 0:
        return PrecoderSet(analog=np.zeros((subset_precoders.shape[1], 0), complex),
                           digital=np.zeros((s_b, 0, 0), complex), users=[],
                           b_g=b_g, subband_of_k=subband_of_k)
    blocks = np.stack([subset_precoders[chosen[u]] for u in users])  # (U_a, NT, B_g)
    analog = np.concatenate(list(blocks), axis=1)
    grams = np.einsum("itb,jtc->ijbc", np.conj(blocks), blocks)  # B_i^H B_j
    digital = np.zeros((s_b, n_a * b_g, n_a), dtype=np.complex128)
    for s in range(s_b):
        rows = np.stack([gains[u, s] * np.conj(recon[u, s]) for u in users])
        cols = _rzf_blocks(rows, grams, sigma2, n_ports)
        for j in range(n_a):
            digital[s, j * b_g:(j + 1) * b_g, j] = cols[j]
    return PrecoderSet(analog=analog, digital=digital, users=users, b_g=b_g,
                       subband_of_k=subband_of_k)


def _wideband_profile(recon: np.ndarray) -> np.ndarray:
    """Coherent wideband average of per-subband PMI directions: (U, B_g).

    A propagation-delay phase ramp rotates the reconstruction from subband to
    subband; a plain mean over subbands then self-cancels.  Align each
    subband's direction to the running average by the phase of their inner
    product before accumulating, and normalize the result.
    """
    n_users, s_b, _ = recon.shape
    acc = recon[:, 0].copy()
    for s in range(1, s_b):
        z = np.einsum("ub,ub->u", np.conj(acc), recon[:, s])
        phase = np.where(np.abs(z) > 0, z / np.where(np.abs(z) > 0, np.abs(z), 1.0), 1.0)
        acc += np.conj(phase)[:, None] * recon[:, s]
    norms = np.linalg.norm(acc, axis=1, keepdims=True)
    return np.where(norms > 0, acc / np.where(norms > 0, norms, 1.0), acc)


def _estimated_sum_se(cand: list[int], recon_wb: np.ndarray, gains_wb: np.ndarray,
                      chosen: np.ndarray, subset_precoders: np.ndarray,
                      sigma2: float, n_ports: int) -> float:
    """Model-based sum SE of a candidate schedule from PMI reconstructions."""
    n_a = len(cand)
    b_g = subset_precoders.shape[2]
    blocks = np.stack([subset_precoders[chosen[u]] for u in cand])
    grams = np.einsum("itb,jtc->ijbc", np.conj(blocks), blocks)
    rows = np.stack([gains_wb[u] * np.conj(recon_wb[u]) for u in cand])
    cols = _rzf_blocks(rows, grams, sigma2, n_ports)
    p = 1.0 / n_a  # equal power split across scheduled users
    total = 0.0
    for i in range(n_a):
        a = np.array([(rows[i] @ grams[i, v]) @ cols[v] for v in range(n_a)])
        sig = p * np.abs(a[i]) ** 2
        intf = p * (np.abs(a) ** 2).sum() - sig
        # Residual-leakage floor: RZF nulls are computed from quantized
        # rank-1 PMI, so each co-scheduled stream leaks a fraction of the
        # victim's own channel power back as interference.  Without this
        # de-rating the model predicts near-perfect nulling and over-packs
        # correlated users.
        leak = _PMI_LEAKAGE * (n_a - 1) * sig
        total += np.log2(1.0 + sig / (intf + leak + sigma2))
    return float(total)


def schedule_users(recon: np.ndarray, gains: np.ndarray, chosen: np.ndarray,
                   subset_precoders: np.ndarray, candidates: list[int],
                   sigma2: float, n_ports: int = DIGITAL_PORTS) -> list[int]:
    """Multi-start greedy schedule maximizing estimated sum SE.

    One greedy growth per forced first user (adding users while the estimate
    improves and the digital port budget len(schedule) * B_g <= n_ports
    allows), each polished by drop and one-for-one swap moves until no such
    move improves the estimate; the best schedule over all starts wins.
    """
    b_g = subset_precoders.shape[2]
    recon_wb = _wideband_profile(recon)
    gains_wb = gains.mean(axis=1)
    cand = sorted(int(u) for u in candidates)
    if not cand or b_g > n_ports:
        return []

    def se_of(users):
        return _estimated_sum_se(sorted(users), recon_wb, gains_wb, chosen,
                                 subset_precoders, sigma2, n_ports)

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


def schedule_users_exhaustive(recon, gains, chosen, subset_precoders, candidates,
                              sigma2, n_ports: int = DIGITAL_PORTS) -> list[int]:
    """Test oracle: best subset by estimated sum SE (exponential search)."""
    from itertools import combinations

    b_g = subset_precoders.shape[2]
    recon_wb = _wideband_profile(recon)
    gains_wb = gains.mean(axis=1)
    best, best_set = 0.0, []
    cand = sorted(int(u) for u in candidates)
    for r in range(1, len(cand) + 1):
        if r * b_g > n_ports:
            break
        for combo in combinations(cand, r):
            se = _estimated_sum_se(list(combo), recon_wb, gains_wb, chosen,
                                   subset_precoders, sigma2, n_ports)
            if se > best:
                best, best_set = se, list(combo)
    return best_set


def data_fraction(l_max: int, n_csi: int, k_ssb: int, k_subcarriers: int,
                  t_period: int) -> float:
    """Fraction of the period left for data after beam-management overhead."""
    used = l_max * k_ssb / k_subcarriers + n_csi
    return max(0.0, 1.0 - used / t_period)


def transmit_and_score(h: ChannelTensor | np.ndarray, sets: list[PrecoderSet],
                       sigma2: float, t_bm=(), k_bm=(),
                       alpha: float = 1.0) -> EsseReport:
    """Score the data transmission: per-user LMMSE SINR and ESSE.

    Per-user effective transmit column: analog @ digital block, scaled by
    1/sqrt(U_a * K * NT) (equal power split, broadcast-equivalent total
    power).  REs with t in t_bm or k in k_bm are beam-management overhead
    and excluded; ``alpha`` additionally scales for overhead not modeled on
    the (T, K) grid.
    """
    hv = h.values if isinstance(h, ChannelTensor) else h
    hv = np.asarray(hv, dtype=np.complex128)
    c_cells, n_users, t_slots, k_sub, n_rx, n_t = hv.shape
    if len(sets) != c_cells:
        raise ShapeError("one precoder set per cell required")
    t_bm, k_bm = set(t_bm), set(k_bm)
    data_res = [(t, k) for t in range(t_slots) for k in range(k_sub)
                if t not in t_bm and k not in k_bm]
    # effective per-cell transmit matrices per subcarrier: (C, K, NT, U_a_c)
    eff = []
    for ps in sets:
        if len(ps.users) == 0:
            eff.append(np.zeros((k_sub, n_t, 0), dtype=np.complex128))
            continue
        scale = 1.0 / np.sqrt(len(ps.users) * k_sub * n_t)
        w = np.stack([ps.analog @ ps.digital[ps.subband_of_k[k]] * scale
                      for k in range(k_sub)])
        eff.append(w)
    per_user_rate: dict[int, float] = {}
    sig_power: dict[int, float] = {}
    in_power: dict[int, float] = {}
    total = 0.0
    for c, ps in enumerate(sets):
        for j, u in enumerate(ps.users):
            rates, sigs = [], []
            for (t, k) in data_res:
                r = sigma2 * np.eye(n_rx, dtype=np.complex128)
                for c2 in range(c_cells):
                    g = hv[c2, u, t, k] @ eff[c2][k]
                    r += g @ np.conj(g.T)
                v = hv[c, u, t, k] @ eff[c][k][:, j]
                q = float(np.real(np.conj(v) @ cholesky_inverse(r) @ v))
                q = min(q, 1.0 - 1e-15)
                rates.append(np.log2(1.0 + q / (1.0 - q)))
                sigs.append(float(np.sum(np.abs(v) ** 2)))
            mean_rate = float(np.mean(rates)) if rates else 0.0
            frac = len(data_res) / (t_slots * k_sub)
            per_user_rate[u] = alpha * frac * mean_rate
            sig_power[u] = float(np.mean(sigs)) if sigs else 0.0
            eff_snr = np.exp2(mean_rate) - 1.0
            in_power[u] = sig_power[u] / eff_snr if eff_snr > 0 else np.inf
            total += per_user_rate[u]
    counts = np.array([len(ps.users) for ps in sets], dtype=float)
    alloc = counts / counts.sum() if counts.sum() > 0 else counts
    return EsseReport(esse=total, per_user_rate=per_user_rate, allocation=alloc,
                      signal_power=sig_power, int_noise_power=in_power,
                      data_fraction=alpha * (len(data_res) / (t_slots * k_sub)),
                      t_bm=tuple(sorted(t_bm)), k_bm=tuple(sorted(k_bm)))
