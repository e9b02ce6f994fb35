"""Autodiff engine: values, analytic gradients, finite-difference oracle."""
import gc
import importlib
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import analytic_gradients, assert_grads_match, random_complex

from beamweaver import autodiff as ad
from beamweaver.autodiff import DiffTensor, Tape
from beamweaver.errors import DomainError, ShapeError, SingularMatrixError


def _scalar_loss(t):
    """Reduce any tensor to a real scalar: sum |.|^2 then total."""
    s = ad.abs2(t)
    while s.value.ndim > 0:
        s = ad.sum_axis(s, axis=0)
    return s


# ------------------------------- values ----------------------------------

def test_matmul_identity():
    a = ad.constant(np.eye(2))
    b = ad.constant([[2.0, 3.0], [4.0, 5.0]])
    np.testing.assert_allclose(ad.matmul(a, b).value, b.value)


def test_matmul_complex_scalar():
    a = ad.constant([[1.0 + 1.0j]])
    b = ad.constant([[1.0 - 1.0j]])
    np.testing.assert_allclose(ad.matmul(a, b).value, [[2.0]])


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))


def test_hermitian_inverse_scaled_identity():
    out = ad.hermitian_inverse(ad.constant(2.0 * np.eye(2)))
    np.testing.assert_allclose(out.value, 0.5 * np.eye(2))


def test_hermitian_inverse_2x2():
    m = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
    out = ad.hermitian_inverse(ad.constant(m))
    np.testing.assert_allclose(m @ out.value, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(out.value, np.array([[2 / 3, -1j / 3], [1j / 3, 2 / 3]]),
                               atol=1e-12)


def test_hermitian_inverse_rejects_indefinite():
    with pytest.raises(SingularMatrixError):
        ad.hermitian_inverse(ad.constant(np.diag([1.0, -1.0])))


def test_elementwise_values():
    np.testing.assert_allclose(ad.abs2(ad.constant(3.0 + 4.0j)).value, 25.0)
    np.testing.assert_allclose(ad.log2_1p(ad.constant(3.0)).value, 2.0)
    np.testing.assert_allclose(ad.sum_axis(ad.constant(np.ones(7)), axis=0).value, 7.0)


def test_log2_1p_domain_errors():
    with pytest.raises(DomainError):
        ad.log2_1p(ad.constant(-2.0))
    with pytest.raises(DomainError):
        ad.log2_1p(ad.constant(1.0 + 1.0j))


def test_add_shape_error():
    with pytest.raises(ShapeError):
        ad.add(ad.constant(np.ones(3)), ad.constant(np.ones(4)))


def test_stop_gradient_value_and_no_grad():
    tape = Tape()
    z = tape.parameter("z", np.array([1.0 + 2.0j]))
    out = ad.stop_gradient(z)
    np.testing.assert_allclose(out.value, [1.0 + 2.0j])
    loss = _scalar_loss(out)
    ad.backward(loss)
    assert z.grad is None


def test_straight_through_identity_backward():
    tape = Tape()
    z = tape.parameter("z", np.array([1.0 + 1.0j, -2.0]))
    proj = np.array([5.0, 7.0j])
    out = ad.straight_through(z, proj)
    np.testing.assert_allclose(out.value, proj)
    ad.backward(ad.sum_axis(ad.real(out), axis=0))
    np.testing.assert_allclose(z.grad, [0.5, 0.5])  # identity pass-through


# ------------------------------ backward ---------------------------------

def test_backward_abs2_analytic():
    tape = Tape()
    z = tape.parameter("z", np.array(1.0 + 1.0j))
    ad.backward(ad.abs2(z))
    np.testing.assert_allclose(z.grad, 1.0 + 1.0j)


def test_backward_re_z_wbar():
    def loss(z, w):
        return ad.real(ad.mul(z, ad.conj(w)))

    assert_grads_match(loss, [np.array(2.0 + 0.0j), np.array(3.0j)], rtol=1e-6)


def test_backward_constant_loss_zero_grads():
    tape = Tape()
    z = tape.parameter("z", np.array([1.0 + 2.0j, 3.0]))
    loss = ad.sum_axis(ad.abs2(ad.scale(z, 0.0)), axis=0)
    ad.backward(loss)
    np.testing.assert_allclose(tape.gradients()["z"], 0.0)


def test_backward_rejects_nonscalar_loss():
    with pytest.raises(ShapeError):
        ad.backward(ad.constant(np.ones(2)))


def test_backward_rejects_complex_loss():
    with pytest.raises(DomainError):
        ad.backward(ad.constant(1.0 + 1.0j))


def test_backward_sum_of_subgraphs_is_additive():
    rng = np.random.default_rng(3)
    v = random_complex(rng, (3, 3))

    def f(z):
        return _scalar_loss(ad.matmul(z, ad.conj(z)))

    def g(z):
        return _scalar_loss(ad.log2_1p(ad.abs2(z)))

    def both(z):
        return ad.add(f(z), g(z))

    gf = analytic_gradients(f, [v])[0]
    gg = analytic_gradients(g, [v])[0]
    gb = analytic_gradients(both, [v])[0]
    np.testing.assert_allclose(gb, gf + gg, rtol=1e-12)


def test_tape_replay_bitwise_deterministic():
    rng = np.random.default_rng(11)
    v = random_complex(rng, (4, 4))

    def run():
        tape = Tape()
        z = tape.parameter("z", v)
        loss = _scalar_loss(ad.hermitian_inverse(
            ad.add(ad.matmul(z, ad.conj(ad.swapaxes(z, -1, -2))), ad.constant(np.eye(4)))))
        ad.backward(loss)
        return loss.value.copy(), z.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2) and np.array_equal(g1, g2)


def test_lmmse_sinr_zero_stream_scores_zero():
    # an all-zero RZF column reaches the receiver as a zero desired stream
    rng = np.random.default_rng(12)
    x = random_complex(rng, (2, 3))
    x[:, 1] = 0.0
    tape = Tape()
    p = tape.parameter("x", x)
    out = ad.lmmse_sinr(p, np.array([1, 0]), 0.5)
    assert out.value[0] == 0.0 and out.value[1] > 0.0
    ad.backward(ad.sum_axis(out, axis=0))
    assert np.all(np.isfinite(p.grad)) and not p.grad[:, 1].any()  # quadratic at 0


# Frozen reference: lmmse_filter and lmmse_sinr as they were before the SINR
# moved to the batch-last block kernel, one LAPACK solve and two batched
# matmuls per stack.
def _frozen_own_columns(own, ndim):
    own = np.asarray(own, dtype=np.intp)[..., None, :]
    return own.reshape((1,) * (ndim - own.ndim) + own.shape)


def _frozen_lmmse_filter(x, own, lam):
    n, m = x.shape[-2:]
    own = _frozen_own_columns(own, x.ndim)
    xh = np.conj(np.swapaxes(x, -1, -2))
    if m >= n:
        r = x @ xh
        r += lam * np.eye(n)
        w = np.linalg.solve(r, np.take_along_axis(x, own, axis=-1))
        return w, xh @ w
    g = xh @ x
    g += lam * np.eye(m)
    e_own = (np.arange(m)[:, None] == own).astype(np.complex128)
    a = np.linalg.solve(g, e_own)
    return x @ a, e_own - lam * a


def _frozen_lmmse_sinr(x, own, sigma2):
    xv = x.value
    w, z = _frozen_lmmse_filter(xv, own, sigma2)
    own = _frozen_own_columns(own, xv.ndim)
    is_own = np.arange(xv.shape[-1])[:, None] == own
    p = z.real ** 2 + z.imag ** 2
    num = np.take_along_axis(p, own, axis=-2)[..., 0, :]
    den = (sigma2 * (w.real ** 2 + w.imag ** 2).sum(axis=-2)
           + np.where(is_own, 0.0, p).sum(axis=-2))
    live = den > 0
    den = np.where(live, den, 1.0)
    sinr = np.where(live, num, 0.0) / den
    out = DiffTensor(sinr, parents=(x,))

    def backward(g):
        a = (2.0 * np.real(g) / den)[..., None, :]
        coef = np.where(is_own, a, -a * sinr[..., None, :])
        dx = w @ np.swapaxes(np.conj(z) * coef, -1, -2)
        x.accumulate(ad._unbroadcast(dx, x.shape))

    out._backward = backward
    return out


def _sinr_case(case):
    """(x, own, sigma2) of one frozen-reference case."""
    rng = np.random.default_rng(sum(map(ord, case)))
    if case == "wide-one-stream":  # M >= N, S = 1, own from (U, 1, 1, S)
        x = random_complex(rng, (3, 1, 4, 2, 6))
        own = np.array([0, 2, 5])[:, None, None, None]
    elif case == "wide-four-streams":  # the CSI-RS sweep's layout
        x = random_complex(rng, (2, 3, 1, 4, 4, 12))
        own = (np.array([0, 1, 2])[:, None] * 4 + np.arange(4))[:, None, None, :]
    elif case == "tall-one-stream":  # M < N: the push-through form
        x = random_complex(rng, (3, 1, 4, 4, 3))
        own = np.arange(3)[:, None, None, None]
    elif case == "tall-four-streams":
        x = random_complex(rng, (3, 2, 6, 5))
        own = np.array([[4, 0, 2, 1], [1, 3, 0, 4], [2, 1, 4, 0]])[:, None, :]
    elif case == "blocks":  # two full blocks and one matrix
        x = random_complex(rng, (2 * ad._SINR_BLOCK + 1, 2, 6))
        own = rng.permuted(np.tile(np.arange(6), (len(x), 1)), axis=1)[:, :2]
    elif case in ("wide-zero-column", "tall-zero-column"):  # matrices 0 and 3
        n, m = (2, 6) if case.startswith("wide") else (4, 3)
        x = random_complex(rng, (5, n, m))
        x[[0, 3], :, 1] = 0.0
        own = np.array([1, 0])
    elif case in ("wide-rank-deficient", "tall-rank-deficient"):
        n, m = (4, 6) if case.startswith("wide") else (5, 3)
        x = random_complex(rng, (8, n, 2)) @ random_complex(rng, (8, 2, m))
        own = np.array([0, m - 1])
    else:  # pragma: no cover
        raise AssertionError(case)
    return x, own, 0.3


@pytest.mark.parametrize("case", [
    "wide-one-stream", "wide-four-streams", "tall-one-stream", "tall-four-streams",
    "blocks", "wide-zero-column", "tall-zero-column", "wide-rank-deficient",
    "tall-rank-deficient",
])
def test_lmmse_sinr_matches_frozen_lapack_reference(case):
    x0, own, sigma2 = _sinr_case(case)
    results = []
    for op in (ad.lmmse_sinr, _frozen_lmmse_sinr):
        x = DiffTensor(x0, requires_grad=True)
        out = op(x, own, sigma2)
        out._backward(np.random.default_rng(4).uniform(0.5, 1.5, out.shape) + 0j)
        results.append((out.value, x.grad))
    (got, got_dx), (want, want_dx) = results
    assert got.shape == want.shape and not got.imag.any()
    # the plain entry: the op's value bit for bit, as float64
    plain = ad.lmmse_sinr_array(x0, own, sigma2)
    assert plain.dtype == np.float64 and plain.tobytes() == got.real.tobytes()
    np.testing.assert_allclose(got.real, want.real, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got_dx, want_dx, rtol=1e-12,
                               atol=1e-12 * np.abs(want_dx).max())
    if case.endswith("zero-column"):  # stream 0 of matrices 0 and 3 is all zero
        assert not got[[0, 3], 0].any() and np.all(got.real[[1, 2, 4]] > 0)
        assert not got_dx[[0, 3], :, 1].any()


@pytest.mark.parametrize("case", ["wide-one-stream", "tall-one-stream", "tall-four-streams"])
def test_lmmse_filter_gives_the_frozen_filters_bit_for_bit(case):
    # W alone, from the same operations as when Z came with it
    x, own, lam = _sinr_case(case)
    assert np.array_equal(ad.lmmse_filter(x, own, lam), _frozen_lmmse_filter(x, own, lam)[0])


@pytest.mark.parametrize("own", [[0, 6], [-1, 2]])
def test_lmmse_sinr_rejects_own_columns_outside_x(own):
    # a flat index one past a stream's columns would read the next stream's
    for entry in (ad.lmmse_sinr, ad.lmmse_sinr_array):
        with pytest.raises(ShapeError):
            entry(np.ones((3, 2, 6)), np.array(own), 0.3)


# 24 matrices: one block, three full blocks, or three blocks and a partial one
_BLOCK_SPLITS = {"one": 24, "three": 8, "three-and-partial": 7}


@pytest.mark.parametrize("requires_grad", [False, True])
@pytest.mark.parametrize("blocks", list(_BLOCK_SPLITS))
@pytest.mark.parametrize("n,m", [(2, 6), (4, 3)])  # M >= N and M < N
def test_lmmse_sinr_on_a_batch_last_view_matches_a_contiguous_stack(n, m, blocks,
                                                                     requires_grad,
                                                                     monkeypatch):
    monkeypatch.setattr(ad, "_SINR_BLOCK", _BLOCK_SPLITS[blocks])
    rng = np.random.default_rng(10 * n + m)
    xt = random_complex(rng, (n, m, 24))  # batch last, as the CSI-RS sweep lays it out
    own = rng.permuted(np.tile(np.arange(m), (24, 1)), axis=1)[:, :2]
    g = rng.uniform(0.5, 1.5, (24, 2)) + 0j
    results = []
    for stack in (np.moveaxis(xt, -1, 0), np.ascontiguousarray(np.moveaxis(xt, -1, 0))):
        x = DiffTensor(stack, requires_grad=requires_grad)
        out = ad.lmmse_sinr(x, own, 0.3)
        if requires_grad:
            out._backward(g)
        results.append((out.value, x.grad))
    (view_sinr, view_dx), (copy_sinr, copy_dx) = results
    assert np.array_equal(view_sinr, copy_sinr)
    if requires_grad:
        assert np.array_equal(view_dx, copy_dx)


def test_lmmse_sinr_copies_a_contiguous_stack_once(monkeypatch):
    monkeypatch.setattr(ad, "_SINR_BLOCK", 7)
    seen = []
    kernel = ad._sinr_block

    def spy(xt, *args):
        seen.append(xt)
        return kernel(xt, *args)

    monkeypatch.setattr(ad, "_sinr_block", spy)
    x = random_complex(np.random.default_rng(8), (24, 2, 6))
    ad.lmmse_sinr(x, np.array([0, 3]), 0.3)
    assert len(seen) == 4
    # every block is a view of one batch-last copy, none of them of x
    assert all(b.base is seen[0].base is not None for b in seen)
    assert not any(np.shares_memory(b, x) for b in seen)


def test_lmmse_sinr_backward_does_not_keep_the_stack_alive(monkeypatch):
    # the backward keeps only each block's filters, never the batch-last copy
    bases = []
    kernel = ad._sinr_block

    def spy(xt, *args):
        bases.append(weakref.ref(xt.base))
        return kernel(xt, *args)

    monkeypatch.setattr(ad, "_sinr_block", spy)
    x = DiffTensor(random_complex(np.random.default_rng(9), (24, 2, 6)), requires_grad=True)
    out = ad.lmmse_sinr(x, np.array([0, 3]), 0.3)
    assert bases and all(r() is None for r in bases)
    out._backward(np.ones(out.shape, dtype=np.complex128))
    assert x.grad.shape == x.shape


def test_benchmark_per_layer_ops_exist():
    # perfbench reports a per-layer op or function missing from the package
    # as null, which makes the benchmark's output malformed
    doc = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    # channel.links and channel.s_per_link are derived from counters, and
    # trace.* describes the trace itself
    derived = {"channel.links", "channel.s_per_link"}
    layers = sorted({m["name"].rsplit(".", 1)[0] for m in doc["per_layer"]
                     if m["name"] not in derived and not m["name"].startswith("trace.")})
    assert any(n.startswith("autodiff.") for n in layers)
    assert any(not n.startswith("autodiff.") for n in layers)
    for name in layers:
        module, attr = name.split(".")
        owner = importlib.import_module(f"beamweaver.{module}")
        assert callable(getattr(owner, attr, None)), f"BENCHMARK.json names {name}"


# ---------------------- finite-difference oracle -------------------------

def test_fd_matmul_spec_example():
    def loss(a, b):
        return _scalar_loss(ad.matmul(a, b))

    assert_grads_match(loss, [np.array([[1.0 + 0j]]), np.array([[2.0 + 0j]])], rtol=1e-6)


@pytest.mark.parametrize("a_shape, b_shape", [
    ((3, 8, 6), (3, 6, 1)),  # a far larger than g: dB conjugates g
    ((2, 5), (4, 5, 9)),  # b far larger than g, broadcast a: dA conjugates g
    ((4, 3, 2), (2, 5)),  # g the largest: both conjugate the other factor
])
def test_matmul_backward_matches_the_direct_adjoints(a_shape, b_shape):
    rng = np.random.default_rng(23)
    a0, b0 = random_complex(rng, a_shape), random_complex(rng, b_shape)
    a, b = ad.DiffTensor(a0, requires_grad=True), ad.DiffTensor(b0, requires_grad=True)
    out = ad.matmul(a, b)
    g = random_complex(rng, out.shape)
    ad.backward(ad.sum_axis(ad.reshape(ad.real(ad.mul(out, ad.constant(g))), (-1,)), 0))
    # dA = g' @ B^H and dB = A^H @ g', with g' = conj(g) / 2 the adjoint of out
    seed = np.conj(g) / 2
    want_a = seed @ np.conj(np.swapaxes(b0, -1, -2))
    want_b = np.conj(np.swapaxes(a0, -1, -2)) @ seed
    want_a = want_a.sum(axis=tuple(range(want_a.ndim - a0.ndim)))
    want_b = want_b.sum(axis=tuple(range(want_b.ndim - b0.ndim)))
    np.testing.assert_allclose(a.grad, want_a, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(b.grad, want_b, rtol=1e-13, atol=1e-13)


EVERY_OP = [
    "add", "sub", "mul", "div", "scale", "matmul", "conj", "abs2", "real",
    "log2_1p", "relu", "reshape", "swapaxes",
    "sum_axis", "mean_axis", "concat", "take", "take-scalar", "select_cells",
    "unit_modulus", "hermitian_inverse", "lmmse_sinr", "conv2d", "conv2d_transpose", "crop2d",
]


def _every_op_case(op_name):
    """(loss function, parameter values) that exercise one op."""
    rng = np.random.default_rng(hash(op_name) % 2**32)
    a = random_complex(rng, (4, 4))
    b = random_complex(rng, (4, 4))
    if op_name == "add":
        fn, vals = (lambda x, y: _scalar_loss(ad.add(x, y))), [a, b]
    elif op_name == "sub":
        fn, vals = (lambda x, y: _scalar_loss(ad.sub(x, y))), [a, b]
    elif op_name == "mul":
        fn, vals = (lambda x, y: _scalar_loss(ad.mul(x, y))), [a, b]
    elif op_name == "div":
        fn, vals = (lambda x, y: _scalar_loss(ad.div(x, y))), [a, b + 3.0]
    elif op_name == "scale":
        fn, vals = (lambda x: _scalar_loss(ad.scale(x, 0.7 - 0.3j))), [a]
    elif op_name == "matmul":
        fn, vals = (lambda x, y: _scalar_loss(ad.matmul(x, y))), [a, b]
    elif op_name == "conj":
        fn, vals = (lambda x: _scalar_loss(ad.mul(ad.conj(x), ad.constant(b)))), [a]
    elif op_name == "abs2":
        fn, vals = (lambda x: _scalar_loss(ad.abs2(x))), [a]
    elif op_name == "real":
        fn, vals = (lambda x: _scalar_loss(ad.real(ad.mul(x, x)))), [a]
    elif op_name == "log2_1p":
        fn, vals = (lambda x: _scalar_loss(ad.log2_1p(ad.abs2(x)))), [a]
    elif op_name == "relu":
        fn, vals = (lambda x: _scalar_loss(ad.relu(ad.real(x)))), [a.real + 0j]
    elif op_name == "reshape":
        fn, vals = (lambda x: _scalar_loss(ad.matmul(ad.reshape(x, (2, 8)),
                                                     ad.constant(b[:, :2].reshape(8, 1))))), [a]
    elif op_name == "swapaxes":
        fn, vals = (lambda x: _scalar_loss(ad.matmul(ad.swapaxes(x, 0, 1), ad.constant(b)))), [a]
    elif op_name == "sum_axis":
        fn, vals = (lambda x: _scalar_loss(ad.sum_axis(ad.mul(x, x), axis=1))), [a]
    elif op_name == "mean_axis":
        fn, vals = (lambda x: _scalar_loss(ad.mean_axis(ad.mul(x, ad.conj(x)), axis=0))), [a]
    elif op_name == "concat":
        fn, vals = (lambda x, y: _scalar_loss(ad.matmul(ad.concat([x, y], axis=0),
                                                        ad.constant(b)))), [a, b]
    elif op_name == "take":
        fn, vals = (lambda x: _scalar_loss(ad.take(ad.mul(x, x), np.array([0, 2, 0]),
                                                   axis=0))), [a]
    elif op_name == "take-scalar":  # one slab, its axis dropped
        fn, vals = (lambda x: _scalar_loss(ad.add(
            ad.take(ad.mul(x, x), 2), ad.take(ad.mul(x, x), 1, axis=1)))), [a]
    elif op_name == "select_cells":
        fn, vals = (lambda x: _scalar_loss(ad.select_cells(ad.mul(x, x),
                                                           np.array([1, 0, 3, 2])))), [a]
    elif op_name == "unit_modulus":
        fn, vals = (lambda x: _scalar_loss(ad.add(ad.unit_modulus(x, 0.5),
                                                  ad.constant(b)))), [a]
    elif op_name == "hermitian_inverse":
        def fn(x):
            m = ad.add(ad.matmul(x, ad.conj(ad.swapaxes(x, -1, -2))),
                       ad.constant(2.0 * np.eye(4)))
            return _scalar_loss(ad.hermitian_inverse(m))
        vals = [a]
    elif op_name == "lmmse_sinr":
        # 2 REs, N_R = 2, 4 columns; streams 1 and 3 on the first RE, 0 and 2
        # on the second
        own = np.array([[1, 3], [0, 2]])
        fn, vals = (lambda x: _scalar_loss(ad.lmmse_sinr(x, own, 0.4))), [a.reshape(2, 2, 4)]
    elif op_name == "conv2d":
        x = random_complex(rng, (1, 2, 5, 5))
        w = random_complex(rng, (3, 2, 3, 3))
        fn, vals = (lambda xx, ww: _scalar_loss(ad.conv2d(xx, ww, stride=2, pad=1))), [x, w]
    elif op_name == "conv2d_transpose":
        x = random_complex(rng, (1, 3, 3, 3))
        w = random_complex(rng, (3, 2, 3, 3))
        fn, vals = (lambda xx, ww: _scalar_loss(
            ad.conv2d_transpose(xx, ww, stride=2, pad=1))), [x, w]
    elif op_name == "crop2d":
        x = random_complex(rng, (2, 5, 5))
        fn, vals = (lambda xx: _scalar_loss(ad.crop2d(ad.mul(xx, xx), 3, 2))), [x]
    else:  # pragma: no cover
        raise AssertionError(op_name)
    return fn, vals


@pytest.mark.parametrize("op_name", EVERY_OP)
def test_fd_every_op(op_name):
    assert_grads_match(*_every_op_case(op_name))


@pytest.mark.parametrize("op_name", EVERY_OP)
def test_every_op_graph_is_freed_without_gc(op_name):
    # a backward closure that holds its own output (say, to read out.shape)
    # makes a reference cycle: the graph then lives until the next GC pass
    fn, vals = _every_op_case(op_name)
    params = [DiffTensor(v, requires_grad=True) for v in vals]
    gc.collect()
    gc.disable()
    try:
        loss = fn(*params)
        nodes = [n for n in ad._toposort(loss) if n._parents]
        refs = [weakref.ref(n) for n in nodes] + [weakref.ref(n._backward) for n in nodes]
        del loss, nodes
        alive = [r() for r in refs if r() is not None]
        assert not alive, f"{op_name}: {len(alive)} graph objects outlive their output"
    finally:
        gc.enable()


@pytest.mark.parametrize("op_name", EVERY_OP)
def test_every_op_stores_fresh_c_contiguous_gradients(op_name):
    # an op may hand ``accumulate`` its buffer as owned only if the buffer is
    # fresh: C-contiguous complex128 of the input's shape, and shared with no
    # other node's gradient or value.  Each node's gradient is kept here as
    # its backward runs, since ``backward`` releases the inner ones.
    fn, vals = _every_op_case(op_name)
    params = [DiffTensor(v, requires_grad=True) for v in vals]
    loss = fn(*params)
    nodes = ad._toposort(loss)
    kept = []
    for n in nodes:
        if n._backward is not None:
            n._backward = (lambda g, node=n, run=n._backward:
                           (kept.append((node, g)), run(g)))
    ad.backward(loss)
    grads = kept + [(p, p.grad) for p in params]
    for p in params:
        assert p.grad.shape == p.shape
        assert p.grad.dtype == np.complex128
        assert p.grad.flags.c_contiguous
    for i, (node, g) in enumerate(grads):
        others = [h for other, h in grads[i + 1:] if other is not node]
        others += [n.value for n in nodes]
        assert not any(np.shares_memory(g, h) for h in others), op_name


# Frozen NCHW window kernels, the conv ops' implementation before they went
# channels-last with one GEMM per kernel tap; the references for both ops.

def _frozen_im2col(x, kh, kw, stride, pad):
    # x: (B, C, H, W) -> windows (B, C, kh, kw, Ho, Wo)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    b, c, h, w = xp.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    s0, s1, s2, s3 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(b, c, kh, kw, ho, wo),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    return windows, ho, wo


def _frozen_conv2d_value(x, w, stride, pad):
    kh, kw = w.shape[-2:]
    windows, ho, wo = _frozen_im2col(x, kh, kw, stride, pad)
    return np.einsum("bcklhw,ockl->bohw", windows, w, optimize=True)


def _frozen_scatter_windows(g, w, x_shape, stride, pad):
    b, c, h, w_in = x_shape
    kh, kw = w.shape[-2:]
    acc = np.zeros((b, c, h + 2 * pad, w_in + 2 * pad), dtype=np.complex128)
    ho, wo = g.shape[-2:]
    contrib = np.einsum("bohw,ockl->bcklhw", g, w, optimize=True)
    for i in range(kh):
        for j in range(kw):
            acc[:, :, i : i + ho * stride : stride, j : j + wo * stride : stride] += contrib[:, :, i, j]
    if pad:
        acc = acc[:, :, pad:-pad, pad:-pad]
    return acc


def _frozen_window_products(g, x, kh, kw, stride, pad):
    windows, _, _ = _frozen_im2col(x, kh, kw, stride, pad)
    return np.einsum("bohw,bcklhw->ockl", g, windows, optimize=True)


def _frozen_conv(op, x, w, g, stride, pad):
    """(value, dx, dw) of conv2d or conv2d_transpose by the frozen kernels."""
    kh, kw = w.shape[-2:]
    if op == "conv2d":
        return (_frozen_conv2d_value(x, w, stride, pad),
                _frozen_scatter_windows(g, np.conj(w), x.shape, stride, pad),
                np.conj(_frozen_window_products(np.conj(g), x, kh, kw, stride, pad)))
    b, _, h, w_in = x.shape
    out_shape = (b, w.shape[1], (h - 1) * stride - 2 * pad + kh,
                 (w_in - 1) * stride - 2 * pad + kw)
    return (_frozen_scatter_windows(x, w, out_shape, stride, pad),
            _frozen_conv2d_value(g, np.conj(w), stride, pad),
            _frozen_window_products(np.conj(x), g, kh, kw, stride, pad))


# (op, x shape, w shape, stride, pad, x needs a gradient)
CONV_CASES = {
    # the four layers of the train-neural-4x4 generator at B = 4
    "conv1": ("conv2d", (4, 192, 5, 5), (16, 192, 3, 3), 2, 1, False),
    "conv2": ("conv2d", (4, 16, 3, 3), (32, 16, 3, 3), 2, 1, True),
    "deconv1": ("conv2d_transpose", (4, 32, 2, 2), (32, 16, 3, 3), 2, 1, True),
    "deconv2": ("conv2d_transpose", (4, 16, 3, 3), (16, 576, 3, 3), 2, 1, True),
    "conv-s1-p1": ("conv2d", (2, 3, 6, 5), (4, 3, 3, 3), 1, 1, True),
    "conv-s2-p0": ("conv2d", (2, 3, 7, 6), (4, 3, 3, 3), 2, 0, True),
    "conv-2x3-kernel": ("conv2d", (2, 3, 6, 7), (4, 3, 2, 3), 2, 1, True),
    "conv-b1": ("conv2d", (1, 5, 4, 4), (3, 5, 3, 3), 1, 0, True),
    "deconv-s1-p1": ("conv2d_transpose", (2, 3, 4, 5), (3, 4, 3, 3), 1, 1, True),
    "deconv-s2-p0": ("conv2d_transpose", (2, 3, 3, 4), (3, 4, 3, 3), 2, 0, True),
    "deconv-2x3-kernel": ("conv2d_transpose", (2, 3, 4, 3), (3, 4, 2, 3), 2, 1, True),
    "deconv-b1": ("conv2d_transpose", (1, 5, 3, 3), (5, 2, 3, 3), 2, 1, True),
    "deconv-x-constant": ("conv2d_transpose", (2, 3, 3, 3), (3, 4, 3, 3), 2, 1, False),
}


@pytest.mark.parametrize("case", list(CONV_CASES))
def test_conv_ops_match_frozen_window_kernels(case):
    op, x_shape, w_shape, stride, pad, x_grad = CONV_CASES[case]
    rng = np.random.default_rng(sorted(CONV_CASES).index(case))
    x, w = random_complex(rng, x_shape), random_complex(rng, w_shape)
    xt, wt = DiffTensor(x, requires_grad=x_grad), DiffTensor(w, requires_grad=True)
    out = getattr(ad, op)(xt, wt, stride=stride, pad=pad)
    g = random_complex(rng, out.shape)
    out._backward(g)
    value, dx, dw = _frozen_conv(op, x, w, g, stride, pad)
    np.testing.assert_allclose(out.value, value, rtol=1e-13, atol=0)
    np.testing.assert_allclose(wt.grad, dw, rtol=1e-13, atol=0)
    if x_grad:
        np.testing.assert_allclose(xt.grad, dx, rtol=1e-13, atol=0)
    else:
        assert xt.grad is None


def test_fd_real_trace_of_inverse():
    rng = np.random.default_rng(5)
    a = random_complex(rng, (3, 3))

    def loss(x):
        m = ad.add(ad.matmul(x, ad.conj(ad.swapaxes(x, -1, -2))), ad.constant(3.0 * np.eye(3)))
        inv = ad.hermitian_inverse(m)
        tr = ad.sum_axis(ad.take(ad.reshape(inv, (9,)), np.array([0, 4, 8])), axis=0)
        return ad.real(tr)

    assert_grads_match(loss, [a], rtol=1e-5)


def test_unit_modulus_forward():
    z = np.array([3.0 + 4.0j, 0.0, -2.0])
    out = ad.unit_modulus(ad.constant(z), magnitude=0.5)
    np.testing.assert_allclose(out.value, [0.5 * (0.6 + 0.8j), 0.5, -0.5], atol=1e-15)


def test_broadcasting_gradients():
    rng = np.random.default_rng(9)
    a = random_complex(rng, (3, 1))
    b = random_complex(rng, (1, 4))

    def loss(x, y):
        return _scalar_loss(ad.mul(x, y))

    assert_grads_match(loss, [a, b])
