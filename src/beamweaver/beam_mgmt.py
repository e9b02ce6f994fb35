"""Beam-management protocol core.

SSB sweep RSRP (measured, noise-free and differentiable at chosen beams),
network feedback aggregation, CSI-RS subset selection, LMMSE combining /
SINR, and achievable spectral efficiency.

Two kinds of stage.  The sweeps run forward only, on plain arrays:
``measure_rsrp`` and ``rsrp_tensor`` over every SSB beam, ``csirs_sinr``
over all N_CSI resources.  ``decide``, the one decision path of evaluation
and training, takes a (C, L, U) RSRP array, measured or noise-free, and
runs feedback, subsets and ``csirs_sinr`` to decide association, subsets
and each user's resource.  Training then differentiates only what its loss
reads, on DiffTensor codebooks: ``beam_rsrp`` at one beam per (cell, user)
and ``resource_sinr`` at each user's chosen resource, with
``gather_per_user`` picking those entries and ``stream_se`` forming the
SE.  The sweep's SINR comes from ``autodiff.lmmse_sinr_array``, the kernel
of the ``lmmse_sinr`` op, on a batch-last stack it reads in place, and
``achievable_se`` takes ``stream_se``'s operations in NumPy.

Conventions:
  * All cells sweep beam index i on the same time-frequency occasion.
    Cell-specific DMRS sequences decorrelate the other cells' beams, so the
    UE, combining with maximum-ratio weights against the desired cell's
    effective channel, measures RSRP as desired power plus combined noise.
  * The broadcast beam is power-normalized by 1/sqrt(K * NT).
  * Interfering CSI-RS precoders pair up by resource index: at resource i
    every cell transmits the i-th entry of its own ordered subset.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffTensor
from .channel import _stream
from .errors import ConfigError, DomainError, ShapeError

_NOISE_TAG = 7


@dataclass
class FeedbackReport:
    """Per-user best (cell, beam) association and the winning RSRP."""

    p: np.ndarray  # (U,) best RSRP, linear mW
    m: np.ndarray  # (U,) best beam index
    b: np.ndarray  # (U,) best cell index
    new_user_mask: np.ndarray  # (U,) bool; True = excluded from statistics
    l_max: int

    def users_of_cell(self, cell: int) -> np.ndarray:
        """Non-new users associated with ``cell`` (ascending user index)."""
        keep = (self.b == cell) & ~self.new_user_mask
        return np.nonzero(keep)[0]

    def beam_counts(self, cell: int) -> np.ndarray:
        users = self.users_of_cell(cell)
        return np.bincount(self.m[users], minlength=self.l_max).astype(float)

    def beam_rsrp_sums(self, cell: int) -> np.ndarray:
        users = self.users_of_cell(cell)
        out = np.zeros(self.l_max)
        np.add.at(out, self.m[users], self.p[users])
        return out


@dataclass
class CsirsSelection:
    """Ordered CSI-RS precoder subset for one cell."""

    subset_indices: list[int]
    fallback: bool = False


@dataclass
class SinrRecord:
    """Per (user, resource, t, k, stream) SINR of the CSI-RS sweep."""

    sinr: DiffTensor  # (U, N_CSI, T, K, S), constant


@dataclass
class SelectionPin:
    """One drop's discrete decisions (``decide``), reusable across FD steps."""

    report: FeedbackReport
    subset_indices: list  # per cell, its N_CSI precoder indices
    subsets: np.ndarray  # (C, N_CSI, NT, B_g): per cell, its transmitted precoders
    se: np.ndarray  # (U, N_CSI) achievable SE on each resource
    chosen: np.ndarray  # (U,) each user's CSI-RS resource
    beams: np.ndarray  # (C, U) each cell's strongest beam at each user


def _beam_signals(h, beams) -> np.ndarray:
    """Per-beam receive vectors of every cell's sweep: (C, L, U, T, K, N_R).

    h: (C, U, T, K, N_R, NT) channel; beams: per cell an (L, NT) array.
    One (C, L, NT) @ (C, NT, U*T*K*N_R) product, scaled by the broadcast
    normalization 1/sqrt(K * NT).
    """
    hv = np.asarray(h, dtype=np.complex128)
    c_cells, _, _, k_sub, _, n_t = hv.shape
    if len(beams) != c_cells:
        raise ShapeError(f"{len(beams)} SSB codebooks for {c_cells} cells")
    l_max = beams[0].shape[0]
    if any(b.shape != (l_max, n_t) for b in beams):
        raise ShapeError("SSB codebook does not match channel geometry")
    stacked = np.array(beams, dtype=np.complex128)  # (C, L, NT)
    prod = stacked @ np.swapaxes(hv.reshape(c_cells, -1, n_t), 1, 2)
    prod *= 1.0 / np.sqrt(k_sub * n_t)
    return prod.reshape((c_cells, l_max) + hv.shape[1:-1])


def measure_rsrp(h, beams, sigma2: float, seed: int) -> np.ndarray:
    """Measured RSRP[c, i, u]: desired-plus-noise power after MRC combining.

    h: (C, U, T, K, N_R, NT); beams: per cell its (L, NT) SSB beams.  The
    drop's receiver noise, complex variance sigma2, is drawn from ``seed``.
    """
    sig = _beam_signals(h, beams)
    rng = _stream(seed, _NOISE_TAG, 0)
    # noise = scale * (re + 1j im), re drawn first, through one float buffer;
    # then conj(sig) * (sig + noise) in place, in that operand order, which
    # fixes the last bits of the RSRP
    scale, draw = np.sqrt(sigma2 / 2.0), np.empty(sig.shape)
    noise = np.empty_like(sig)
    np.multiply(rng.standard_normal(out=draw), scale, out=noise.real)
    np.multiply(rng.standard_normal(out=draw), scale, out=noise.imag)
    np.add(sig, noise, out=noise)
    np.multiply(np.conj(sig), noise, out=noise)
    ns2 = np.sum(np.abs(sig) ** 2, axis=-1)
    cross = np.abs(np.sum(noise, axis=-1)) ** 2
    # only an exactly zero signal scores 0; a non-finite one stays non-finite
    # so that aggregate_feedback rejects it
    zero = ns2 == 0
    combined = np.where(zero, 0.0, cross / np.where(zero, 1.0, ns2))
    return combined.sum(axis=(-1, -2))


def rsrp_tensor(h, beams) -> np.ndarray:
    """Noise-free RSRP (C, L, U) of every cell's beams, float64, forward only.

    h: (C, U, T, K, N_R, NT); beams: per cell an (L, NT) array.  Equals
    measure_rsrp at sigma2 = 0; ``beam_rsrp`` is the differentiable stage.
    """
    # complex128 sums, as on DiffTensors: float64 sums round the last bit
    # differently, and the RSRP reaches the bytes of the feedback images
    power = (np.abs(_beam_signals(h, beams)) ** 2).astype(np.complex128)
    return power.sum(axis=-1).sum(axis=-1).sum(axis=-1).real


def gather_per_user(books: list, index) -> DiffTensor:
    """(C, U, ...) stack of entry ``index[c, u]`` of each cell's book.

    books: per cell an (N, ...) DiffTensor or array, such as its (L, NT)
    SSB beams or (N_CB, NT, B_g) precoders; index: (C, U) integers.
    """
    index = np.asarray(index, dtype=np.intp)
    rows = [ad.take(book, index[c], axis=0) for c, book in enumerate(books)]
    return ad.concat([ad.reshape(r, (1,) + r.shape) for r in rows], axis=0)


def _link_rows(hv: np.ndarray) -> DiffTensor:
    """The channel as (C, U, T*K*N_R, NT): one matrix per (cell, user) link."""
    c_cells, n_users = hv.shape[:2]
    return ad.constant(hv.reshape(c_cells, n_users, -1, hv.shape[-1]))


def beam_rsrp(h: np.ndarray, beams) -> DiffTensor:
    """Differentiable noise-free RSRP (C, U) of one beam per (cell, user).

    h: (C, U, T, K, N_R, NT); beams: (C, U, NT), the beam of cell c that
    user u measures.  The SSB stage that training differentiates:
    rsrp_tensor's entries at those beams, one matrix-vector product per link.
    """
    hv = np.asarray(h, dtype=np.complex128)
    c_cells, n_users, _, k_sub, _, n_t = hv.shape
    if beams.shape != (c_cells, n_users, n_t):
        raise ShapeError(f"beams {beams.shape} do not fit channel {hv.shape}")
    sig = ad.matmul(_link_rows(hv), ad.reshape(beams, (c_cells, n_users, n_t, 1)))
    sig = ad.scale(ad.reshape(sig, hv.shape[:-1]), 1.0 / np.sqrt(k_sub * n_t))
    power = ad.sum_axis(ad.abs2(sig), axis=-1)  # (C, U, T, K)
    return ad.sum_axis(ad.sum_axis(power, axis=-1), axis=-1)


def aggregate_feedback(rsrp: np.ndarray, new_user_mask=None) -> FeedbackReport:
    """Per-user argmax over (cell, beam); ties go to lowest cell then beam."""
    rsrp = np.asarray(rsrp, dtype=float)
    if not np.all(np.isfinite(rsrp)):
        raise DomainError("RSRP values must be finite")
    c_cells, l_max, n_users = rsrp.shape
    flat = rsrp.reshape(c_cells * l_max, n_users)
    best = np.argmax(flat, axis=0)  # argmax takes the first maximum: lowest (c, i)
    b, m = np.divmod(best, l_max)
    p = flat[best, np.arange(n_users)]
    mask = (np.zeros(n_users, bool) if new_user_mask is None
            else np.asarray(new_user_mask, bool))
    return FeedbackReport(p=p, m=m.astype(int), b=b.astype(int),
                          new_user_mask=mask, l_max=l_max)


def _apportion(counts: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder apportionment with a one-seat floor per claimant;
    with more claimants than seats, one seat each for the largest counts."""
    active = np.nonzero(counts > 0)[0]
    n = len(active)
    out = np.zeros_like(counts, dtype=int)
    if n == 0:
        return out
    if total < n:
        out[active[np.argsort(-counts[active], kind="stable")[:total]]] = 1
        return out
    out[active] = 1
    spare = total - n
    quota = spare * counts[active] / counts[active].sum()
    base = np.floor(quota).astype(int)
    out[active] += base
    rem = quota - base
    # ties resolved toward the lower beam index (stable sort on -remainder)
    order = np.argsort(-rem, kind="stable")
    for j in order[: spare - base.sum()]:
        out[active[j]] += 1
    return out


def _beam_precoder_correlation(ssb_beams: np.ndarray, precoders: np.ndarray,
                               memo: dict | None) -> np.ndarray:
    """C[i, j] = max over precoder columns of |<f_i, b>|, memoised in ``memo``.

    ``memo`` maps the ids of the two arrays to (ssb_beams, precoders, C).
    Holding the arrays keeps their ids from being reused while the memo
    lives.  The einsum stays: a GEMM rounds the near-exact ties of DFT
    correlations the other way and so changes which precoders are picked.
    """
    key = (id(ssb_beams), id(precoders))
    if memo is not None and key in memo:
        return memo[key][2]
    corr = np.abs(np.einsum("it,jts->ijs", np.conj(ssb_beams), precoders)).max(axis=2)
    if memo is not None:
        memo[key] = (ssb_beams, precoders, corr)
    return corr


def select_csirs_subset(ssb_beams: np.ndarray, precoders: np.ndarray,
                        report: FeedbackReport, cell: int,
                        n_csi: int, memo: dict | None = None) -> CsirsSelection:
    """Pick the N_CSI refinement precoders covering the cell's active beams.

    ssb_beams: the cell's (L, NT) SSB beams; precoders: its (N_CB, NT, B_g)
    CSI-RS precoder stack.

    Per-SSB-beam budgets follow user counts (largest-remainder, each
    reported beam keeps at least one precoder); each beam takes its
    most-correlated free precoders; over budget, the N_CSI most-reported
    beams take one each (ties to the lower beam index).  A cell with no
    users falls back to the first N_CSI precoders by index.

    ``memo`` shares the beam-precoder correlation between calls on the same
    two array objects; its owner keeps it as long as those codebooks.  The
    arrays must not be edited in place while it lives.
    """
    n_cb = precoders.shape[0]
    if n_csi > n_cb:
        raise ConfigError(f"n_csi={n_csi} exceeds codebook size {n_cb}")
    counts = report.beam_counts(cell)
    if counts.sum() == 0:
        return CsirsSelection(subset_indices=list(range(n_csi)), fallback=True)
    budgets = _apportion(counts, n_csi)
    corr = _beam_precoder_correlation(ssb_beams, precoders, memo)
    taken: list[int] = []
    free = np.ones(n_cb, bool)
    for i in np.nonzero(budgets)[0]:
        order = np.argsort(-corr[i], kind="stable")  # ties -> lowest index
        picked = 0
        for j in order:
            if picked == budgets[i]:
                break
            if free[j]:
                taken.append(int(j))
                free[j] = False
                picked += 1
    return CsirsSelection(subset_indices=taken)


def csirs_sinr(h: np.ndarray, subsets: list,
               assoc: np.ndarray, sigma2: float) -> SinrRecord:
    """LMMSE per-stream SINR for every user and CSI-RS resource.

    subsets: per cell, the ordered (N_CSI, NT, B_g) array of transmitted
    precoders, as a list or one stacked array.  assoc: per-user serving
    cell.  G_c = H_c B_c,i; every cell's B_g columns reach each user, and
    the serving cell's columns are its desired streams.  The SINR is the
    LMMSE filter's output SINR, that of ``autodiff.lmmse_sinr_array``,
    accurate at any SNR.

    Forward only: one GEMM forms every received signal and one transpose
    copy lays them out batch-last, (N_R, C*B_g, N_CSI*U*T*K).
    ``autodiff.lmmse_sinr_array`` gets that stack as its moved view
    (N_CSI*U*T*K, N_R, C*B_g), which it reads in place.  The record holds
    the SINR as a constant DiffTensor; ``resource_sinr`` is the
    differentiable stage.
    """
    hv = np.asarray(h, dtype=np.complex128)
    c_cells, n_users, t_slots, k_sub, n_rx, n_t = hv.shape
    if len(subsets) != c_cells:
        raise ShapeError("one precoder subset required per cell")
    assoc = np.asarray(assoc, dtype=np.intp)
    n_csi, _, b_g = np.shape(subsets[0])
    if any(np.shape(s) != (n_csi, n_t, b_g) for s in subsets):
        raise ShapeError("CSI-RS subsets do not match each other or the channel")
    # every cell's subset as one (C, NT, N_CSI*B_g) stack, so one GEMM forms
    # all received signals (C, U*T*K*N_R, N_CSI*B_g); the product is freed
    # once it is copied into the stack, before the kernel allocates
    cols = np.swapaxes(np.asarray(subsets, dtype=np.complex128), 1, 2)
    prod = hv.reshape(c_cells, -1, n_t) @ cols.reshape(c_cells, n_t, n_csi * b_g)
    xt = np.ascontiguousarray(
        prod.reshape(c_cells, n_users, t_slots, k_sub, n_rx, n_csi, b_g)
        .transpose(4, 0, 6, 5, 1, 2, 3)).reshape(n_rx, c_cells * b_g, -1)
    del prod  # xt: (N_R, C*B_g, N_CSI*U*T*K)
    own = np.broadcast_to(_own_streams(assoc, b_g),
                          (n_csi, n_users, t_slots, k_sub, b_g)).reshape(-1, b_g)
    sinr = ad.lmmse_sinr_array(np.moveaxis(xt, -1, 0), own, sigma2)
    sinr = sinr.reshape(n_csi, n_users, t_slots, k_sub, b_g)
    return SinrRecord(sinr=ad.constant(np.swapaxes(sinr, 0, 1)))  # (U, N_CSI, T, K, B_g)


def _own_streams(assoc: np.ndarray, b_g: int) -> np.ndarray:
    """(U, 1, 1, B_g) column of each user's serving-cell streams among C*B_g."""
    return (assoc[:, None] * b_g + np.arange(b_g))[:, None, None, :]


def resource_sinr(h: np.ndarray, precoders, assoc: np.ndarray,
                  sigma2: float) -> DiffTensor:
    """LMMSE per-stream SINR (U, T, K, B_g) of each user on one resource.

    precoders: (C, U, NT, B_g), the precoder cell c transmits on user u's
    resource (see ``gather_per_user``).  The same received columns and
    ``autodiff.lmmse_sinr`` call as ``csirs_sinr`` at that resource, from
    one (T*K*N_R, NT) @ (NT, B_g) product per link instead of all N_CSI.
    """
    hv = np.asarray(h, dtype=np.complex128)
    c_cells, n_users, t_slots, k_sub, n_rx, n_t = hv.shape
    if precoders.shape[:3] != (c_cells, n_users, n_t):
        raise ShapeError(f"precoders {precoders.shape} do not fit channel {hv.shape}")
    b_g = precoders.shape[-1]
    prod = ad.matmul(_link_rows(hv), precoders)  # (C, U, T*K*N_R, B_g)
    x = ad.reshape(ad.swapaxes(ad.swapaxes(prod, 0, 1), 1, 2),
                   (n_users, t_slots, k_sub, n_rx, c_cells * b_g))
    own = _own_streams(np.asarray(assoc, dtype=np.intp), b_g)
    return ad.lmmse_sinr(x, own, sigma2)


def stream_se(sinr) -> DiffTensor:
    """SE (...) = sum over streams of log2(1 + mean over (t, k) SINR).

    sinr: (..., T, K, S) per-stream SINR.
    """
    mean_tk = ad.mean_axis(ad.mean_axis(sinr, axis=-2), axis=-2)  # (..., S)
    return ad.sum_axis(ad.log2_1p(mean_tk), axis=-1)


def achievable_se(sinr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-user SE per resource (U, N_CSI) and each user's resource (U,).

    sinr: (U, N_CSI, T, K, S) real array.  SE_i = sum_streams log2(1 + mean
    over (t, k) SINR), ``stream_se``'s operations in its order, forward
    only; i-hat = argmax, ties to the lowest index.
    """
    # complex128 sums, as on DiffTensors: float64 sums round the last bit
    # differently (over K at one stream, over four streams), and the SE picks
    # each user's resource
    s = np.asarray(sinr, dtype=np.complex128)
    mean_tk = (s.sum(axis=-2) * (1.0 / s.shape[-2])).sum(axis=-2) * (1.0 / s.shape[-3])
    se = (np.log1p(mean_tk.real) / ad._LN2).astype(np.complex128).sum(axis=-1).real
    return se, np.argmax(se, axis=1)


def decide(rsrp: np.ndarray, h, ssb_beams: list, precoders: list,
           sigma2: float, n_csi: int, new_user_mask=None,
           memo: dict | None = None) -> SelectionPin:
    """One drop's discrete decisions from its (C, L, U) RSRP, forward only.

    ssb_beams: per cell its (L, NT) beams; precoders: its (N_CB, NT, B_g)
    CSI-RS precoders.  Without a ``memo``, the drop's cells that share
    codebook arrays share a new one.
    """
    report = aggregate_feedback(rsrp, new_user_mask)
    memo = {} if memo is None else memo
    subset_idx = [select_csirs_subset(b, p, report, c, n_csi, memo).subset_indices
                  for c, (b, p) in enumerate(zip(ssb_beams, precoders))]
    # one C-ordered stack in any codebook layout (np.stack would keep a
    # transposed one), so equal codebooks give equal bits
    subsets = np.array([p[idx] for p, idx in zip(precoders, subset_idx)])
    se, chosen = achievable_se(csirs_sinr(h, subsets, report.b, sigma2).sinr.value.real)
    # per cell, the first maximum: at the serving cell that is report.m
    return SelectionPin(report=report, subset_indices=subset_idx, subsets=subsets,
                        se=se, chosen=chosen, beams=np.argmax(rsrp, axis=1))


def effective_sinr(se) -> np.ndarray:
    """10*log10(2^SE - 1); SE = 0 maps to -inf."""
    se = np.asarray(se, dtype=float)
    if np.any(se < 0):
        raise ConfigError("spectral efficiency must be non-negative")
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.exp2(se) - 1.0)
