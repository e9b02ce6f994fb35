"""Shared test helpers: the finite-difference gradient oracle, the frozen
differentiable SSB and CSI-RS sweeps and the frozen CSI-RS SE."""
import numpy as np

from beamweaver import autodiff as ad
from beamweaver.autodiff import Tape


def loss_value(loss_fn, values):
    """Evaluate a loss function on plain constants, returning a real float."""
    out = loss_fn(*[ad.constant(v) for v in values])
    return float(np.real(out.value.reshape(())))


def fd_gradients(loss_fn, values, eps=1e-5):
    """Central-difference gradients in the stored convention.

    For each complex entry z = x + i*y the oracle returns
    0.5 * (dL/dx + i * dL/dy), matching the conjugate-Wirtinger gradient
    produced by ``backward``.
    """
    grads = []
    for i, v in enumerate(values):
        g = np.zeros(v.shape, dtype=np.complex128)
        flat = g.reshape(-1)
        base = [np.array(w, dtype=np.complex128) for w in values]
        for idx in range(v.size):
            for direction in (1.0, 1.0j):
                pert = base[i].reshape(-1)
                keep = pert[idx]
                pert[idx] = keep + eps * direction
                up = loss_value(loss_fn, base)
                pert[idx] = keep - eps * direction
                dn = loss_value(loss_fn, base)
                pert[idx] = keep
                flat[idx] += 0.5 * direction * (up - dn) / (2.0 * eps)
        grads.append(g)
    return grads


def analytic_gradients(loss_fn, values):
    """Gradients from a single backward pass over tape parameters."""
    tape = Tape()
    params = [tape.parameter(f"p{i}", v) for i, v in enumerate(values)]
    loss = loss_fn(*params)
    ad.backward(loss)
    return [tape.parameters[f"p{i}"].grad if tape.parameters[f"p{i}"].grad is not None
            else np.zeros(v.shape, dtype=np.complex128)
            for i, v in enumerate(values)]


def assert_grads_match(loss_fn, values, rtol=1e-4, eps=1e-5):
    got = analytic_gradients(loss_fn, values)
    want = fd_gradients(loss_fn, values, eps=eps)
    for g, w in zip(got, want):
        denom = max(np.linalg.norm(w), np.linalg.norm(g), 1e-8)
        err = np.linalg.norm(g - w) / denom
        assert err < rtol, f"gradient mismatch: rel err {err:.3e}\n got={g}\nwant={w}"


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def frozen_beam_signals(h, beams):
    """Frozen reference: ``beam_mgmt._beam_signals`` as it was while it still
    built an autodiff graph, (C, L, U, T, K, N_R) as a DiffTensor.

    beams: per cell an (L, NT) array or DiffTensor.  A concat of the cells'
    beams, one matmul with the channel's columns, then the broadcast
    normalization 1/sqrt(K * NT) as a complex ``scale``.
    """
    hv = np.asarray(h, dtype=np.complex128)
    c_cells, _, _, k_sub, _, n_t = hv.shape
    l_max = beams[0].shape[0]
    stacked = ad.concat([ad.reshape(b, (1, l_max, n_t)) for b in beams], axis=0)
    h_cols = ad.constant(np.swapaxes(hv.reshape(c_cells, -1, n_t), 1, 2))
    prod = ad.matmul(stacked, h_cols)  # (C, L, U*T*K*N_R)
    return ad.scale(ad.reshape(prod, (c_cells, l_max) + hv.shape[1:-1]),
                    1.0 / np.sqrt(k_sub * n_t))


def frozen_rsrp_tensor(h, beams):
    """Frozen reference: ``beam_mgmt.rsrp_tensor`` as it was while it still
    built an autodiff graph, the noise-free (C, L, U) RSRP as a complex
    DiffTensor with zero imaginary part; it differentiates every beam."""
    power = ad.sum_axis(ad.abs2(frozen_beam_signals(h, beams)), axis=-1)
    return ad.sum_axis(ad.sum_axis(power, axis=-1), axis=-1)


def frozen_csirs_sinr(h, subsets, assoc, sigma2):
    """Frozen reference: ``beam_mgmt.csirs_sinr`` as it was while it still
    built an autodiff graph, (U, N_CSI, T, K, B_g) as a DiffTensor.

    subsets: per cell an (N_CSI, NT, B_g) array or DiffTensor.  One GEMM,
    a concat/swapaxes/reshape chain into (N_CSI, U, T, K, N_R, C*B_g), then
    ``autodiff.lmmse_sinr``; it differentiates every resource of the sweep.
    """
    hv = np.asarray(h, dtype=np.complex128)
    c_cells, n_users, t_slots, k_sub, n_rx, n_t = hv.shape
    assoc = np.asarray(assoc, dtype=np.intp)
    n_csi, _, b_g = subsets[0].shape
    stacked = ad.concat([ad.reshape(s, (1, n_csi, n_t, b_g)) for s in subsets], axis=0)
    cols = ad.reshape(ad.swapaxes(stacked, 1, 2), (c_cells, n_t, n_csi * b_g))
    prod = ad.matmul(ad.constant(hv.reshape(c_cells, -1, n_t)), cols)
    g = ad.reshape(prod, (c_cells, n_users, t_slots, k_sub, n_rx, n_csi, b_g))
    x = ad.reshape(ad.swapaxes(g, 0, 5), (n_csi, n_users, t_slots, k_sub, n_rx,
                                          c_cells * b_g))
    own = (assoc[:, None] * b_g + np.arange(b_g))[:, None, None, :]
    return ad.swapaxes(ad.lmmse_sinr(x, own, sigma2), 0, 1)


def frozen_achievable_se(sinr):
    """Frozen reference: ``beam_mgmt.achievable_se`` as it was while it took
    the SE through autodiff ops, (U, N_CSI) SE and (U,) resource.

    sinr: (U, N_CSI, T, K, S), held as a constant DiffTensor.  Two
    ``mean_axis`` (a complex ``sum_axis`` and ``scale`` each), ``log2_1p``
    and a complex ``sum_axis`` over the streams, as ``stream_se`` takes them.
    """
    s = ad.constant(sinr)
    mean_tk = ad.mean_axis(ad.mean_axis(s, axis=-2), axis=-2)
    se = ad.sum_axis(ad.log2_1p(mean_tk), axis=-1).value.real
    return se, np.argmax(se, axis=1)
