"""Complex-valued dense tensors with reverse-mode automatic differentiation.

Gradients follow the conjugate-Wirtinger convention: for a real scalar loss L
and a complex tensor entry z, the stored gradient is dL/d(conj(z)), so the
steepest-descent update is z <- z - eta * grad.  Equivalently, with
z = x + i*y the stored gradient equals (dL/dx + i*dL/dy) / 2, which is the
quantity checked by the finite-difference tests.

Every op records a closure that accumulates gradients into its inputs; the
graph is a DAG walked once in reverse topological order by ``backward``.
Evaluation is eager, dense and single-threaded per tape.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DomainError, ShapeError, SingularMatrixError

_LN2 = float(np.log(2.0))


def _asarray(x) -> np.ndarray:
    return np.asarray(x, dtype=np.complex128)


class DiffTensor:
    """A node in the autodiff graph: complex value + adjoint accumulator."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, value, requires_grad=False, parents=(), backward=None):
        self.value = _asarray(value)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def accumulate(self, g: np.ndarray, owned: bool = False):
        """Add g to the gradient.  With ``owned``, g is a fresh C-contiguous
        complex128 buffer of this shape that no one else holds, and the first
        gradient adopts it in place of a zero buffer plus an add."""
        if self.grad is None:
            if owned:
                self.grad = g
                return
            self.grad = np.zeros_like(self.value)
        self.grad += g

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"DiffTensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> DiffTensor:
    if isinstance(x, DiffTensor):
        return x
    return DiffTensor(x)


def constant(x) -> DiffTensor:
    return DiffTensor(x, requires_grad=False)


class Tape:
    """Named registry of leaf parameters optimized together.

    Forward passes are ordinary eager evaluation; replaying a forward function
    on identical inputs reproduces identical values bit for bit because all
    ops evaluate in a fixed order with no threading.
    """

    def __init__(self):
        self.parameters: dict[str, DiffTensor] = {}

    def parameter(self, name: str, value) -> DiffTensor:
        if name in self.parameters:
            raise ConfigError(f"duplicate parameter name {name!r}")
        p = DiffTensor(value, requires_grad=True)
        self.parameters[name] = p
        return p

    def zero_grad(self):
        for p in self.parameters.values():
            p.zero_grad()

    def gradients(self) -> dict[str, np.ndarray]:
        return {
            name: (p.grad if p.grad is not None else np.zeros_like(p.value))
            for name, p in self.parameters.items()
        }


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward op."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary_shapes(a, b):
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError as e:
        raise ShapeError(f"cannot broadcast {a.shape} with {b.shape}") from e


def add(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b)
    out = DiffTensor(a.value + b.value, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    out._backward = backward
    return out


def sub(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b)
    out = DiffTensor(a.value - b.value, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g, b.shape))

    out._backward = backward
    return out


def mul(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b)
    out = DiffTensor(a.value * b.value, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * np.conj(b.value), a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * np.conj(a.value), b.shape))

    out._backward = backward
    return out


def div(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b)
    out = DiffTensor(a.value / b.value, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * np.conj(1.0 / b.value), a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * np.conj(-a.value / b.value**2), b.shape))

    out._backward = backward
    return out


def scale(t, alpha) -> DiffTensor:
    """Multiply by a non-learnable constant (scalar or array)."""
    t = as_tensor(t)
    alpha = np.asarray(alpha, dtype=np.complex128)
    out = DiffTensor(t.value * alpha, parents=(t,))

    def backward(g):
        if t.requires_grad:
            t.accumulate(_unbroadcast(g * np.conj(alpha), t.shape))

    out._backward = backward
    return out


def matmul(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ShapeError("matmul requires tensors with ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner dimensions mismatch: {a.shape} @ {b.shape}")
    out = DiffTensor(a.value @ b.value, parents=(a, b))

    def backward(g):
        # dA = g @ B^H, dB = A^H @ g  (conjugate-Wirtinger).  Each conjugates
        # the smaller of g and the other factor: dA = conj(conj(g) @ B^T) and
        # dB = (g^H @ A)^H never copy a large constant factor such as a channel.
        if a.requires_grad:
            if b.value.size <= g.size:
                ga = g @ np.conj(np.swapaxes(b.value, -1, -2))
            else:
                ga = np.conj(np.conj(g) @ np.swapaxes(b.value, -1, -2))
            a.accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            if a.value.size <= g.size:
                gb = np.conj(np.swapaxes(a.value, -1, -2)) @ g
            else:
                gb = np.conj(np.swapaxes(np.swapaxes(np.conj(g), -1, -2) @ a.value,
                                         -1, -2))
            b.accumulate(_unbroadcast(gb, b.shape))

    out._backward = backward
    return out


def conj(t) -> DiffTensor:
    t = as_tensor(t)
    out = DiffTensor(np.conj(t.value), parents=(t,))

    def backward(g):
        if t.requires_grad:
            t.accumulate(np.conj(g))

    out._backward = backward
    return out


def abs2(t) -> DiffTensor:
    """|z|^2 = z * conj(z); output is real-valued."""
    t = as_tensor(t)
    out = DiffTensor(np.abs(t.value) ** 2, parents=(t,))

    def backward(g):
        if t.requires_grad:
            t.accumulate(2.0 * np.real(g) * t.value)

    out._backward = backward
    return out


def real(t) -> DiffTensor:
    t = as_tensor(t)
    out = DiffTensor(np.real(t.value), parents=(t,))

    def backward(g):
        if t.requires_grad:
            t.accumulate(np.real(g).astype(np.complex128))

    out._backward = backward
    return out


def log2_1p(t) -> DiffTensor:
    """log2(1 + x) for real-valued x > -1."""
    t = as_tensor(t)
    x = t.value
    if np.any(np.abs(x.imag) > 1e-9 * (1.0 + np.abs(x.real))):
        raise DomainError("log2_1p requires a real-valued input")
    xr = x.real
    if np.any(xr <= -1.0):
        raise DomainError("log2_1p requires x > -1")
    out = DiffTensor(np.log1p(xr) / _LN2, parents=(t,))

    def backward(g):
        if t.requires_grad:
            t.accumulate(g / ((1.0 + xr) * _LN2))

    out._backward = backward
    return out


def relu(t) -> DiffTensor:
    """max(x, 0) on real-valued tensors (used by the neural generator)."""
    t = as_tensor(t)
    mask = t.value.real > 0.0
    out = DiffTensor(np.where(mask, t.value.real, 0.0), parents=(t,))

    def backward(g):
        if t.requires_grad:
            t.accumulate(np.real(g) * mask)

    out._backward = backward
    return out


def reshape(t, shape) -> DiffTensor:
    t = as_tensor(t)
    old = t.shape
    try:
        v = t.value.reshape(shape)
    except ValueError as e:
        raise ShapeError(str(e)) from e
    out = DiffTensor(v, parents=(t,))

    def backward(g):
        if t.requires_grad:
            t.accumulate(g.reshape(old))

    out._backward = backward
    return out


def swapaxes(t, ax1, ax2) -> DiffTensor:
    t = as_tensor(t)
    out = DiffTensor(np.swapaxes(t.value, ax1, ax2), parents=(t,))

    def backward(g):
        if t.requires_grad:
            t.accumulate(np.swapaxes(g, ax1, ax2))

    out._backward = backward
    return out


def sum_axis(t, axis, keepdims=False) -> DiffTensor:
    t = as_tensor(t)
    out = DiffTensor(t.value.sum(axis=axis, keepdims=keepdims), parents=(t,))

    def backward(g):
        if t.requires_grad:
            if not keepdims:
                g = np.expand_dims(g, axis)
            t.accumulate(np.broadcast_to(g, t.shape).copy())

    out._backward = backward
    return out


def mean_axis(t, axis, keepdims=False) -> DiffTensor:
    t = as_tensor(t)
    n = t.shape[axis] if isinstance(axis, int) else int(np.prod([t.shape[a] for a in axis]))
    return scale(sum_axis(t, axis, keepdims=keepdims), 1.0 / n)


def concat(tensors, axis=0) -> DiffTensor:
    tensors = [as_tensor(t) for t in tensors]
    out = DiffTensor(np.concatenate([t.value for t in tensors], axis=axis), parents=tuple(tensors))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t.accumulate(piece)

    out._backward = backward
    return out


def take(t, indices, axis=0) -> DiffTensor:
    """Gather along one axis with constant integer indices; a scalar index
    takes one slab and drops the axis."""
    t = as_tensor(t)
    indices = np.asarray(indices, dtype=np.intp)
    out = DiffTensor(np.take(t.value, indices, axis=axis), parents=(t,))

    def backward(g):
        if t.requires_grad:
            acc = np.zeros(t.shape, dtype=np.complex128)
            moved = np.moveaxis(acc, axis, 0)
            if indices.ndim:  # indices may repeat
                np.add.at(moved, indices, np.moveaxis(g, axis, 0))
            else:
                moved[indices] = g
            t.accumulate(acc, owned=True)

    out._backward = backward
    return out


def select_cells(t, cell_index) -> DiffTensor:
    """out[u, ...] = t[cell_index[u], u, ...]; gathers one leading slab per user."""
    t = as_tensor(t)
    idx = np.asarray(cell_index, dtype=np.intp)
    users = np.arange(idx.shape[0])
    out = DiffTensor(t.value[idx, users], parents=(t,))

    def backward(g):
        if t.requires_grad:
            acc = np.zeros(t.shape, dtype=np.complex128)
            acc[idx, users] = g  # one (cell, user) pair per user: no repeats
            t.accumulate(acc, owned=True)

    out._backward = backward
    return out


def unit_modulus(t, magnitude: float = 1.0) -> DiffTensor:
    """w = magnitude * z / |z|, with the exact Wirtinger backward.

    dw/dz = c/(2|z|), dw/dconj(z) = -c z^2 / (2|z|^3).  Entries with |z|
    below 1e-12 pass their gradient through unchanged (the forward maps
    them to ``magnitude`` at phase zero).
    """
    t = as_tensor(t)
    z = t.value
    mod = np.abs(z)
    small = mod < 1e-12
    safe = np.where(small, 1.0, mod)
    out = DiffTensor(np.where(small, magnitude, magnitude * z / safe), parents=(t,))

    def backward(g):
        if t.requires_grad:
            gz = (g * (magnitude / (2.0 * safe))
                  - np.conj(g) * magnitude * z * z / (2.0 * safe ** 3))
            t.accumulate(np.where(small, g, gz))

    out._backward = backward
    return out


def stop_gradient(t) -> DiffTensor:
    """Pass the value through; contribute zero adjoint to the input."""
    t = as_tensor(t)
    return DiffTensor(t.value.copy(), requires_grad=False)


def straight_through(t, projected_value) -> DiffTensor:
    """Forward emits ``projected_value``; backward is the identity (STE)."""
    t = as_tensor(t)
    projected_value = _asarray(projected_value)
    if projected_value.shape != t.shape:
        raise ShapeError("straight_through projection must preserve shape")
    out = DiffTensor(projected_value, parents=(t,))

    def backward(g):
        if t.requires_grad:
            t.accumulate(g)

    out._backward = backward
    return out


def hermitian_inverse(m) -> DiffTensor:
    """Inverse of a Hermitian positive definite matrix (or stack thereof)."""
    m = as_tensor(m)
    if m.value.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ShapeError("hermitian_inverse requires square matrices")
    try:
        low = np.linalg.cholesky(m.value)
    except np.linalg.LinAlgError as e:
        raise SingularMatrixError("matrix is not Hermitian positive definite") from e
    linv = np.linalg.inv(low)
    y = np.conj(np.swapaxes(linv, -1, -2)) @ linv
    out = DiffTensor(y, parents=(m,))

    def backward(g):
        if m.requires_grad:
            yh = np.conj(np.swapaxes(y, -1, -2))
            m.accumulate(-yh @ g @ yh)

    out._backward = backward
    return out


def _own_columns(own, ndim: int) -> np.ndarray:
    """Stream column indices (..., S) as a (..., 1, S) array of ``ndim`` axes."""
    own = np.asarray(own, dtype=np.intp)[..., None, :]
    return own.reshape((1,) * (ndim - own.ndim) + own.shape)


def lmmse_filter(x: np.ndarray, own, lam) -> np.ndarray:
    """Filter W = (lam I_N + X X^H)^-1 X[..., own], for lam > 0.

    x: (..., N, M); own: (..., S) integer column of each stream, broadcast
    against the leading axes.  For M >= N: one N x N solve.  For M < N: the
    push-through form W = X A, A = (lam I_M + X^H X)^-1 E_own, exact as
    lam -> 0 whenever X has full column rank.  Returns W (..., N, S).

    The RZF precoder (``link._rzf_columns``) is the only caller: on default
    drops a median of 12 matrices per call and at most about a hundred,
    where one LAPACK solve per stack is about 4x cheaper than the batch-last
    kernel of ``lmmse_sinr``, which solves the same system for stacks of
    thousands of small matrices.
    """
    n, m = x.shape[-2:]
    own = _own_columns(own, x.ndim)
    xh = np.conj(np.swapaxes(x, -1, -2))
    try:
        if m >= n:
            r = x @ xh
            r += lam * np.eye(n)
            return np.linalg.solve(r, np.take_along_axis(x, own, axis=-1))
        g = xh @ x
        g += lam * np.eye(m)
        e_own = (np.arange(m)[:, None] == own).astype(np.complex128)
        a = np.linalg.solve(g, e_own)
    except np.linalg.LinAlgError as e:
        raise SingularMatrixError("LMMSE covariance is singular") from e
    return x @ a


# Matrices per block of the ``lmmse_sinr`` kernel.  A block is a view
# (N, M, B) of the batch-last stack, so every op on it is one unit-stride
# vector op over B.
_SINR_BLOCK = 1024


def _cholesky(gram, lam):
    """Cholesky factor of lam I + G for a block of Hermitian PSD matrices G.

    gram[i][j] (i >= j) is the lower triangle of G, each entry a (B,)
    vector.  Returns the strictly lower entries of L, low[i][j], and the
    inverse pivots 1 / L[j][j].  Every exact pivot of lam I + PSD is at
    least lam, so each computed one is floored there.
    """
    k = len(gram)
    low = [[None] * k for _ in range(k)]
    inv = []
    for j in range(k):
        d = gram[j][j].real + lam
        for q in range(j):
            d -= low[j][q].real ** 2 + low[j][q].imag ** 2
        inv.append(1.0 / np.sqrt(np.maximum(d, lam)))
        for i in range(j + 1, k):
            v = gram[i][j]
            for q in range(j):
                v = v - low[i][q] * np.conj(low[j][q])
            low[i][j] = v * inv[j]
    return low, inv


def _cholesky_solve(low, inv, rhs) -> np.ndarray:
    """Y (K, S, B) with L L^H y = rhs, by forward then back substitution."""
    k = len(inv)
    y = np.empty(rhs.shape, dtype=np.complex128)
    for i in range(k):
        v = rhs[i]
        for q in range(i):
            v = v - low[i][q] * y[q]
        np.multiply(v, inv[i], out=y[i])
    for i in reversed(range(k)):
        v = y[i]
        for q in range(i + 1, k):
            v = v - np.conj(low[q][i]) * y[q]
        np.multiply(v, inv[i], out=y[i])
    return y


def _lincomb(rows, coefs, out=None) -> np.ndarray:
    """sum_i rows[i] * coefs[i], one broadcast multiply-add per term."""
    out = np.multiply(rows[0], coefs[0], out=out)
    for r, c in zip(rows[1:], coefs[1:]):
        out += r * c
    return out


def _own_entries(own: np.ndarray, m: int) -> np.ndarray:
    """Flat index (S, B) of each stream's own entry in an (S, M, B) block."""
    n_s, b = own.shape
    return (np.arange(n_s)[:, None] * m + own) * b + np.arange(b)


def _sinr_block(xt: np.ndarray, own: np.ndarray, lam: float, keep: bool):
    """LMMSE filters and output SINR of one batch-last block.

    xt: (N, M, B) received columns, a view of a batch-last stack whose
    batch axis is unit-stride; own: (S, B) own column of each stream.  The
    same filters as ``lmmse_filter``: for M >= N, W = R^-1 X[:, own] with
    R = lam I + X X^H; for M < N, the push-through W = X A with
    A = (lam I + X^H X)^-1 E_own and Z = E_own - lam A.  Returns
    W (N, S, B), Z = X^H W (S, M, B), den and SINR (S, B).

    Z is reduced one stream at a time.  For M >= N it is stored only if
    ``keep`` (a backward needs it); otherwise each stream's (M, B) slice is
    formed in one reused buffer and None is returned in Z's place.  The
    whole (S, M, B) Z and its powers, about 1.6 MB per block at S = 4,
    M = 12, are then never allocated: faulting in those fresh pages costs
    more than the arithmetic on them.
    """
    n, m, b = xt.shape
    n_s = own.shape[0]
    xc = np.conj(xt)
    if m >= n:
        low, inv = _cholesky([[(xt[i] * xc[j]).sum(axis=0) for j in range(i + 1)]
                              for i in range(n)], lam)
        w = _cholesky_solve(low, inv, xt[:, own, np.arange(b)])  # rhs (N, S, B)
        # Z row by row: into z when it is kept, else into one reused row
        z = np.empty((n_s, m, b), dtype=np.complex128) if keep else None
        row = np.empty((m, b), dtype=np.complex128)
        rows = (_lincomb(xc, w[:, s], out=row if z is None else z[s]) for s in range(n_s))
    else:
        low, inv = _cholesky([[(xc[:, i] * xt[:, j]).sum(axis=0) for j in range(i + 1)]
                              for i in range(m)], lam)
        e_own = np.zeros((n_s, m, b))
        e_own.reshape(-1)[_own_entries(own, m)] = 1.0
        a = _cholesky_solve(low, inv, np.swapaxes(e_own, 0, 1))  # (M, S, B)
        w = np.empty((n, n_s, b), dtype=np.complex128)
        for s in range(n_s):
            _lincomb(np.swapaxes(xt, 0, 1), a[:, s], out=w[:, s])
        rows = z = e_own - lam * np.swapaxes(a, 0, 1)
    num, off = np.empty((n_s, b)), np.empty((n_s, b))
    cols = np.arange(b)
    for s, z_s in enumerate(rows):  # z_s (M, B): own power, then the rest
        p = z_s.real ** 2 + z_s.imag ** 2
        num[s] = p[own[s], cols]
        p[own[s], cols] = 0.0
        off[s] = p.sum(axis=0)
    den = lam * (w.real ** 2 + w.imag ** 2).sum(axis=0) + off
    live = den > 0  # den is 0 only for a zero filter column: a zero desired column
    den = np.where(live, den, 1.0)
    return w, z, den, np.where(live, num, 0.0) / den


def lmmse_sinr_array(x, own, sigma2: float, saved: list | None = None) -> np.ndarray:
    """Per-stream output SINR of the LMMSE receive filter, float64 (..., S).

    x: (..., N_R, M), every transmitted column x_k at the receiver; own:
    (..., S) integer index of each desired stream's column in x (broadcast
    against the leading axes).  With W = R^-1 V, the filter of
    ``lmmse_filter``, R = sigma2 I + X X^H and V = x[..., own],

        SINR_s = |v_s^H w_s|^2 / (sigma2 |w_s|^2 + sum_{k != own_s} |x_k^H w_s|^2).

    Every term is non-negative, so nothing cancels and the form stays
    accurate at any SNR.  A zero desired column scores 0.  This entry builds
    no graph node; the forward-only CSI-RS sweep and the data plane call it.
    The ``lmmse_sinr`` op runs it with a ``saved`` list, to which each
    block's (own, W, Z, den, SINR) is appended for the backward.

    Its callers pass stacks of up to thousands of tiny matrices (2 or 4 x
    12), where one LAPACK call per matrix costs far more than its
    arithmetic.  So the stack is laid out batch-last once, (N_R, M, total),
    and run ``_SINR_BLOCK`` matrices at a time through a Cholesky unrolled
    over min(N_R, M) and solved by substitution, every step one vector op
    over the block.  A stack that is a moved view of a batch-last array
    (``np.moveaxis(xt, -1, 0)``, as ``beam_mgmt.csirs_sinr`` passes) is laid
    out so already, and is not copied.  ``lmmse_filter`` keeps LAPACK for
    the RZF precoder's small stacks.
    """
    xv = _asarray(x)
    if xv.ndim < 2:
        raise ShapeError("lmmse_sinr requires x with ndim >= 2")
    n, m = xv.shape[-2:]
    own = np.asarray(own, dtype=np.intp)
    if own.size and (own.min() < 0 or own.max() >= m):
        raise ShapeError(f"own columns must lie in [0, {m})")
    n_s = own.shape[-1]
    batch = np.broadcast_shapes(xv.shape[:-2], own.shape[:-1])
    total = math.prod(batch)
    xs = np.broadcast_to(xv, batch + (n, m)).reshape(total, n, m)
    owns = np.broadcast_to(own, batch + (n_s,)).reshape(total, n_s)
    xt = np.ascontiguousarray(np.moveaxis(xs, 0, -1))  # (N, M, total)
    sinr = np.empty((total, n_s))
    for b0 in range(0, total, _SINR_BLOCK):
        block = slice(b0, b0 + _SINR_BLOCK)
        own_b = np.ascontiguousarray(owns[block].T)
        w, z, den, sinr_b = _sinr_block(xt[:, :, block], own_b, sigma2, saved is not None)
        sinr[block] = sinr_b.T
        if saved is not None:
            saved.append((own_b, w, z, den, sinr_b))
    return sinr.reshape(batch + (n_s,))


def lmmse_sinr(x, own, sigma2: float) -> DiffTensor:
    """``lmmse_sinr_array`` as a differentiable op (real-valued output).

    own is constant.  w_s maximizes the SINR's Rayleigh quotient, so the
    backward holds W fixed (envelope theorem) and needs no solve:
    dX = W (conj(Z) o coef)^T with Z = X^H W, coef = 2 g/den on the own
    column and -2 g SINR/den elsewhere.
    """
    x = as_tensor(x)
    saved = [] if x.requires_grad else None
    out = DiffTensor(lmmse_sinr_array(x.value, own, sigma2, saved), parents=(x,))

    # the closure holds ``saved``, never ``out`` (out -> backward -> out would
    # be a cycle that keeps the whole graph alive until the next GC pass) nor
    # the whole stack ``xt``
    def backward(g):
        if not x.requires_grad:
            return
        (n, m), batch = x.shape[-2:], g.shape[:-1]
        g = np.real(g).reshape(-1, g.shape[-1])
        dx = np.empty((len(g), n, m), dtype=np.complex128)
        for i, (own_b, w, z, den, sinr_b) in enumerate(saved):
            block = slice(i * _SINR_BLOCK, (i + 1) * _SINR_BLOCK)
            a = 2.0 * g[block].T / den
            coef = np.conj(z) * (-a * sinr_b)[:, None, :]
            at_own = _own_entries(own_b, m)
            coef.reshape(-1)[at_own] = np.conj(z.reshape(-1)[at_own]) * a
            dx_b = _lincomb(np.swapaxes(w, 0, 1)[:, :, None], coef[:, None])  # (N, M, B)
            dx[block] = np.moveaxis(dx_b, -1, 0)
        x.accumulate(_unbroadcast(dx.reshape(batch + (n, m)), x.shape))

    out._backward = backward
    return out


# ------------------------------ convolution ------------------------------
#
# The conv ops take and return NCHW tensors, but work channels-last inside:
# each kernel tap (i, j) gathers its strided positions as a (B*Ho*Wo, C)
# matrix whose rows are whole channel vectors, and multiplies it by the
# tap's (C, C') weight slice, one GEMM per tap.  No window tensor
# (B, C, kh, kw, Ho, Wo) is ever formed, and nothing is kept from the
# forward for the backward beyond the op's inputs.

def _pad_nhwc(x, pad):
    """x (B, C, H, W) as a zero-padded channels-last (B, H+2p, W+2p, C) copy."""
    b, c, h, w = x.shape
    xp = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=np.complex128)
    xp[:, pad:pad + h, pad:pad + w] = x.transpose(0, 2, 3, 1)
    return xp


def _tap(xp, i, j, ho, wo, stride):
    """Rows (B*Ho*Wo, C) of tap (i, j) in a padded channels-last xp."""
    return xp[:, i:i + ho * stride:stride, j:j + wo * stride:stride].reshape(-1, xp.shape[-1])


def _tap_weights(w):
    """Per-tap weight slices, contiguous: (A, B, kh, kw) -> (kh, kw, A, B)."""
    return np.ascontiguousarray(w.transpose(2, 3, 0, 1))


def _nchw(a):
    """A channels-last (B, H, W, C) array in C-contiguous (B, C, H, W) order."""
    return np.ascontiguousarray(a.transpose(0, 3, 1, 2))


def _gather_taps(xp, wt, ho, wo, stride):
    """sum over taps of tap rows @ wt[i, j]: (B*Ho*Wo, C'), wt (kh, kw, C, C')."""
    taps = np.ndindex(wt.shape[:2])
    out = _tap(xp, *next(taps), ho, wo, stride) @ wt[0, 0]
    for i, j in taps:
        out += _tap(xp, i, j, ho, wo, stride) @ wt[i, j]
    return out


def _scatter_taps(rows, wt, in_hw, out_hw, stride, pad):
    """Add rows @ wt[i, j] at each tap's strided positions; crop the padding.

    rows: (B*H*W, C) at the input positions in_hw = (H, W); wt: (kh, kw, C,
    C').  Returns the (B, C', Ho, Wo) result, out_hw = (Ho, Wo).
    """
    kh, kw, _, c_out = wt.shape
    (h, w), (ho, wo) = in_hw, out_hw
    b = rows.shape[0] // (h * w)
    acc = np.zeros((b, ho + 2 * pad, wo + 2 * pad, c_out), dtype=np.complex128)
    for i, j in np.ndindex(kh, kw):
        acc[:, i:i + h * stride:stride, j:j + w * stride:stride] += (
            (rows @ wt[i, j]).reshape(b, h, w, c_out))
    return _nchw(acc[:, pad:pad + ho, pad:pad + wo])


def conv2d(x, w, stride=1, pad=1) -> DiffTensor:
    """2-D convolution, NCHW layout, weight (Cout, Cin, kh, kw)."""
    x, w = as_tensor(x), as_tensor(w)
    if x.value.ndim != 4 or w.value.ndim != 4:
        raise ShapeError("conv2d expects x (B,C,H,W) and w (Cout,Cin,kh,kw)")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"channel mismatch: {x.shape} vs {w.shape}")
    b, _, h, w_in = x.shape
    c_out, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w_in + 2 * pad - kw) // stride + 1
    rows = _gather_taps(_pad_nhwc(x.value, pad), _tap_weights(w.value.swapaxes(0, 1)),
                        ho, wo, stride)
    out = DiffTensor(_nchw(rows.reshape(b, ho, wo, c_out)), parents=(x, w))

    def backward(g):
        g_rows = g.transpose(0, 2, 3, 1).reshape(-1, c_out)  # (B*Ho*Wo, Cout)
        if x.requires_grad:
            x.accumulate(_scatter_taps(g_rows, _tap_weights(np.conj(w.value)), (ho, wo),
                                       (h, w_in), stride, pad), owned=True)
        if w.requires_grad:
            # dw = g^T conj(tap) = conj(conj(g)^T tap): conjugate g once, not each tap
            xp, gc = _pad_nhwc(x.value, pad), np.conj(g_rows)
            dw = np.empty(w.shape, dtype=np.complex128)
            for i, j in np.ndindex(kh, kw):
                np.conj(gc.T @ _tap(xp, i, j, ho, wo, stride), out=dw[:, :, i, j])
            w.accumulate(dw, owned=True)

    out._backward = backward
    return out


def conv2d_transpose(x, w, stride=1, pad=1) -> DiffTensor:
    """Transposed convolution (gradient of conv2d wrt its input).

    Weight layout (Cin, Cout, kh, kw); output spatial size
    (n - 1) * stride - 2 * pad + k.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.value.ndim != 4 or w.value.ndim != 4:
        raise ShapeError("conv2d_transpose expects 4-D tensors")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"channel mismatch: {x.shape} vs {w.shape}")
    b, c_in, h, w_in = x.shape
    c_out, kh, kw = w.shape[1:]
    ho = (h - 1) * stride - 2 * pad + kh
    wo = (w_in - 1) * stride - 2 * pad + kw
    # the forward of the transpose is conv2d's dx, without its conjugation
    x_rows = x.value.transpose(0, 2, 3, 1).reshape(-1, c_in)
    out = DiffTensor(_scatter_taps(x_rows, _tap_weights(w.value), (h, w_in), (ho, wo),
                                   stride, pad), parents=(x, w))

    def backward(g):
        # each tap of the padded g is gathered once and feeds both dx and dw
        gp = _pad_nhwc(g, pad)
        if x.requires_grad:
            wc = _tap_weights(np.conj(w.value).swapaxes(0, 1))  # (kh, kw, Cout, Cin)
            dx = np.zeros((b * h * w_in, c_in), dtype=np.complex128)
        if w.requires_grad:
            xc = np.conj(x.value.transpose(0, 2, 3, 1).reshape(-1, c_in))
            dw = np.empty(w.shape, dtype=np.complex128)
        for i, j in np.ndindex(kh, kw):
            rows = _tap(gp, i, j, h, w_in, stride)
            if x.requires_grad:
                dx += rows @ wc[i, j]
            if w.requires_grad:
                np.matmul(xc.T, rows, out=dw[:, :, i, j])
        if x.requires_grad:
            x.accumulate(_nchw(dx.reshape(b, h, w_in, c_in)), owned=True)
        if w.requires_grad:
            w.accumulate(dw, owned=True)

    out._backward = backward
    return out


def crop2d(t, h, w) -> DiffTensor:
    """Crop the trailing two axes to (h, w)."""
    t = as_tensor(t)
    if t.shape[-2] < h or t.shape[-1] < w:
        raise ShapeError(f"cannot crop {t.shape} to ({h}, {w})")
    out = DiffTensor(t.value[..., :h, :w].copy(), parents=(t,))

    def backward(g):
        if t.requires_grad:
            acc = np.zeros(t.shape, dtype=np.complex128)
            acc[..., :h, :w] = g
            t.accumulate(acc, owned=True)

    out._backward = backward
    return out


# ------------------------------- backward --------------------------------

def _toposort(root: DiffTensor):
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: DiffTensor) -> None:
    """Backpropagate from a real scalar loss; populates .grad on leaves."""
    if loss.value.size != 1:
        raise ShapeError("loss must be a scalar")
    lv = complex(loss.value.reshape(()))
    if abs(lv.imag) > 1e-12 * max(1.0, abs(lv)):
        raise DomainError(f"loss has a material imaginary part: {lv!r}")
    # Seed 1/2: for real scalar L the conjugate-Wirtinger adjoint dL/dconj(L)
    # is 1/2, which makes leaf gradients equal (dL/dx + i dL/dy) / 2.
    loss.accumulate(np.full(loss.shape, 0.5, dtype=np.complex128))
    for node in reversed(_toposort(loss)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node._parents:
            node.grad = None if node is not loss else node.grad
