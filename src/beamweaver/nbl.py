"""End-to-end codebook learning.

Targets are SVD-optimal per-user spectral efficiencies, and the MSE to them
is minimized with Adam.  The forward model replays the beam-management
protocol in two parts.  The noise-free SSB sweep and
``beam_mgmt.decide``, the decision path evaluation runs on measured RSRP,
work on the codebooks' plain arrays and only decide: association, subsets,
each cell's strongest beam at each user and each user's resource.  Those
decisions are held constant, and the autodiff graph covers only what the
losses read: those beams' RSRP and the SINR on each user's chosen resource.
The analog projection passes gradients through a straight-through
estimator.

Two generator flavours: ``direct`` optimizes free beamspace images per
cell; ``neural`` is a small fully-convolutional encoder-decoder mapping the
observed feedback beamspace of all cells to beamspace deltas on top of the
DFT baseline, so the same weights apply across array geometries.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import beam_mgmt as bm
from . import codebook as cb
from .autodiff import DiffTensor, Tape
from .channel import ArrayGeometry, ScenarioConfig, generate_channels, _stream
from .errors import ConfigError, DivergenceError, FormatError, ShapeError, json_int64

_MASK_TAG = 11


@dataclass
class NblDims:
    """Codebook sizing shared by generators and the forward model."""

    l_max: int = 16
    n_cb: int = 32
    n_csi: int = 16
    b_g: int = 4
    b_phase: int | None = None  # None = ideal phase shifters
    elevation_window: tuple = (-0.6, 0.05)


@dataclass
class TrainingSample:
    obsc: list  # per cell: (L*n_pol, N_XO+1, N_YO+1) complex feedback images
    h: np.ndarray  # (C, U, T, K, N_R, NT) channel slice for the drop
    targets: np.ndarray  # (U,) SVD spectral-efficiency targets
    new_user_mask: np.ndarray


@dataclass
class ForwardResult:
    """The differentiable quantities the training losses read.

    Each is a small graph over one drop's decisions (a ``SelectionPin``); no
    other part of the SSB or CSI-RS stage is differentiated.
    """

    pred: DiffTensor  # (U,) achievable SE on the chosen resource
    best_rsrp: DiffTensor  # (U,) serving beam's RSRP, cell_rsrp at the serving cell
    cell_rsrp: DiffTensor  # (C, U) RSRP of each cell's strongest beam


def compute_targets(h: np.ndarray, assoc: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-user SVD spectral efficiency averaged over the resource grid."""
    h = np.asarray(h, dtype=np.complex128)
    n_users = h.shape[1]
    sv = np.linalg.svd(h[assoc, np.arange(n_users)], compute_uv=False)  # (U, T, K, r)
    return np.log2(1.0 + sv ** 2 / sigma2).sum(axis=-1).mean(axis=(1, 2))


def _inverse_project(params: DiffTensor, pair: cb.TransformPair,
                     geometry: ArrayGeometry, b_phase) -> DiffTensor:
    """Beamspace interiors -> constant-modulus beams, straight-through.

    params: (..., n_img, N_XO, N_YO); returns (..., n_img / n_pol, NT) over
    the same leading axes.
    """
    raw = cb.beamspace_inverse(params, pair, geometry)
    # magnitude equalization is smooth, so it gets the exact gradient; only
    # the phase-grid snap needs the straight-through surrogate
    equalized = ad.unit_modulus(raw, 1.0 / np.sqrt(geometry.n_elements))
    if b_phase is None:
        return equalized
    projected = cb.project_analog(equalized.value, b_phase)
    return ad.straight_through(equalized, projected)


def dft_codebooks(geometry: ArrayGeometry,
                  dims: NblDims) -> tuple[np.ndarray, np.ndarray]:
    """A geometry's DFT codebooks at the sizing of ``dims``: (L, NT) SSB beams
    and (N_CB, NT, B_g) CSI-RS precoders."""
    return (cb.build_dft_ssb(geometry, dims.l_max, dims.elevation_window),
            cb.build_dft_csirs(geometry, dims.n_cb, dims.b_g, dims.elevation_window))


def _dft_baseline(geometry: ArrayGeometry, dims: NblDims) -> tuple:
    """A geometry's transform pair and its DFT codebooks' beamspace interiors:
    (pair, (L*n_pol, N_XO, N_YO) SSB, (N_CB*B_g*n_pol, N_XO, N_YO) CSI-RS
    interiors, precoder by precoder and column by column)."""
    pair = cb.make_transform_pair(geometry)
    ssb, csirs = dft_codebooks(geometry, dims)
    cols = np.swapaxes(csirs, 1, 2).reshape(-1, geometry.n_elements)
    return (pair,) + tuple(cb.beamspace_forward(b, pair, geometry)[:, :pair.n_xo, :pair.n_yo]
                           for b in (ssb, cols))


def _codebooks(interiors, pair: cb.TransformPair, geometry: ArrayGeometry,
               dims: NblDims) -> tuple[list, list]:
    """Per-cell codebooks of per-cell (SSB, CSI-RS) beamspace interiors.

    Each cell's interiors, over any leading axes, map to its (..., L, NT)
    SSB beams and (..., N_CB, NT, B_g) CSI-RS precoders.
    """
    ssb, csirs = [], []
    for ssb_img, csirs_img in interiors:
        ssb.append(_inverse_project(ssb_img, pair, geometry, dims.b_phase))
        cols = _inverse_project(csirs_img, pair, geometry, dims.b_phase)
        stack = ad.reshape(cols, cols.shape[:-2] + (
            dims.n_cb, dims.b_g, geometry.n_elements))
        csirs.append(ad.swapaxes(stack, -1, -2))
    return ssb, csirs


class DirectGenerator:
    """Free beamspace parameters per cell, initialized at the DFT baseline.

    The codebooks do not depend on the feedback images, so every drop
    shares them.
    """

    def __init__(self, tape: Tape, cells: int, geometry: ArrayGeometry,
                 dims: NblDims):
        self.geometry = geometry
        self.dims = dims
        self.pair, ssb, csirs = _dft_baseline(geometry, dims)
        self.ssb_params, self.csirs_params = [], []
        for c in range(cells):  # each cell's parameters in arrays of their own
            self.ssb_params.append(tape.parameter(f"ssb{c}", ssb.copy()))
            self.csirs_params.append(tape.parameter(f"csirs{c}", csirs.copy()))

    def generate(self, obsc=None):
        """Per-cell (L, NT) SSB and (N_CB, NT, B_g) CSI-RS codebooks; ``obsc``
        is ignored."""
        return _codebooks(zip(self.ssb_params, self.csirs_params), self.pair,
                          self.geometry, self.dims)


class NeuralGenerator:
    """Fully-convolutional generator: feedback beamspace in, codebooks out.

    Two stride-2 encoder convolutions, two stride-2 transposed
    convolutions; complex images ride as interleaved (re, im) real channel
    pairs.  The output is a delta added to the DFT baseline beamspace of
    whatever geometry is being evaluated, so weights trained on one array
    size transfer to another.  That baseline and the geometry's transform
    pair are computed once per geometry.

    Any array size is served: the network maps an image side s to
    4*ceil(s/4) - 3, so where that falls short of the beamspace grid, the
    input is zero-padded on its far edges only as much as the crop needs.
    Codebooks come out through the direct generator's beamspace inverse and
    projection.  A checkpoint loads into a generator built on a fresh tape,
    through ``load_parameters``.
    """

    def __init__(self, tape: Tape, cells: int, dims: NblDims, n_pol: int = 2,
                 seed: int = 0):
        self.cells = cells
        self.dims = dims
        self.n_pol = n_pol
        self._baselines = {}  # ArrayGeometry -> _dft_baseline(geometry, dims)
        self.cin = cells * dims.l_max * n_pol * 2
        self.cout = cells * (dims.l_max + dims.n_cb * dims.b_g) * n_pol * 2
        h1, h2 = 16, 32  # encoder widths
        rng = np.random.default_rng(seed)
        self.weights = []  # each layer's weight, then its bias
        # per layer: the 3x3 weight's two leading axes, output channels, gain
        for layer, (a, b), out, gain in (
                ("conv1", (h1, self.cin), h1, np.sqrt(2.0)),
                ("conv2", (h2, h1), h2, np.sqrt(2.0)),
                ("deconv1", (h2, h1), h1, np.sqrt(2.0)),
                ("deconv2", (h1, self.cout), self.cout, 1e-2)):
            w = rng.standard_normal((a, b, 3, 3)) * gain / np.sqrt(b * 9)
            self.weights += [tape.parameter(f"{layer}_w", w),
                             tape.parameter(f"{layer}_b", np.zeros((1, out, 1, 1)))]

    def _network(self, x: DiffTensor) -> DiffTensor:
        w1, b1, w2, b2, t1, c1, t2, c2 = self.weights
        h = ad.relu(ad.add(ad.conv2d(x, w1, stride=2, pad=1), b1))
        h = ad.relu(ad.add(ad.conv2d(h, w2, stride=2, pad=1), b2))
        h = ad.relu(ad.add(ad.conv2d_transpose(h, t1, stride=2, pad=1), c1))
        return ad.add(ad.conv2d_transpose(h, t2, stride=2, pad=1), c2)

    def generate_for(self, obsc: list, geometry: ArrayGeometry):
        """Emit per-cell codebooks for the geometry the obsc was built on.

        ``obsc`` holds each cell's feedback images, (L*n_pol, H, W) for one
        drop or (B, L*n_pol, H, W) for B drops.  The network runs once on
        all of them.  Returns per-cell SSB and CSI-RS codebooks with the
        input's leading axes: (L, NT) and (N_CB, NT, B_g) for one drop,
        (B, L, NT) and (B, N_CB, NT, B_g) for B drops.
        """
        dims = self.dims
        if geometry.n_pol != self.n_pol:
            raise ConfigError("generator polarization does not match geometry")
        if geometry not in self._baselines:
            self._baselines[geometry] = _dft_baseline(geometry, dims)
        pair, base_ssb, base_csirs = self._baselines[geometry]
        stacked = np.concatenate([np.asarray(o) for o in obsc], axis=-3)
        lead, (n_in, hh, ww) = stacked.shape[:-3], stacked.shape[-3:]
        if n_in * 2 != self.cin:
            raise ShapeError("observation channel count does not match weights")
        stacked = stacked.reshape((-1, n_in, hh, ww))
        # the network maps a side s to 4*ceil(s/4) - 3; where that falls short
        # of the grid, zero-pad the far edges to the least side that reaches it
        sides = [max(s, 4 * -(-(n + 3) // 4) - 3)
                 for s, n in ((hh, pair.n_xo), (ww, pair.n_yo))]
        x = np.zeros((stacked.shape[0], self.cin, *sides))
        x[:, 0::2, :hh, :ww], x[:, 1::2, :hh, :ww] = stacked.real, stacked.imag
        # crop first, so the re/im split and the delta copy only the interior
        out = ad.crop2d(self._network(ad.constant(x)), pair.n_xo, pair.n_yo)
        re = ad.take(out, np.arange(0, self.cout, 2), axis=1)
        im = ad.take(out, np.arange(1, self.cout, 2), axis=1)
        delta = ad.add(re, ad.scale(im, 1j))  # (B, cout/2, n_xo, n_yo)
        delta = ad.reshape(delta, lead + (self.cout // 2, pair.n_xo, pair.n_yo))

        def offset(lo, hi, base):  # images lo..hi-1 of the delta, on the baseline
            return ad.add(ad.take(delta, np.arange(lo, hi), axis=-3), ad.constant(base))

        n_ssb = dims.l_max * self.n_pol
        per_cell = n_ssb + dims.n_cb * dims.b_g * self.n_pol
        return _codebooks([(offset(s, s + n_ssb, base_ssb),
                            offset(s + n_ssb, s + per_cell, base_csirs))
                           for s in range(0, self.cells * per_cell, per_cell)],
                          pair, geometry, dims)


def forward_model(h: np.ndarray, ssb_dt: list, csirs_dt: list, sigma2: float,
                  pin: bm.SelectionPin,
                  disaggregated_cell: int | None = None) -> ForwardResult:
    """SSB -> feedback -> CSI-RS -> achievable-SE rollout, differentiated
    only where the training losses read it.

    ``pin`` holds the drop's decisions, each cell's strongest beam at each
    user included, as ``beam_mgmt.decide`` makes them; they carry no
    gradient.  The graph holds each cell's strongest beam at each user
    (``cell_rsrp``, with ``best_rsrp`` at the serving cell) and one LMMSE
    SINR per user on its chosen resource, where every cell transmits its
    precoder for that resource (``pred``).  Every cell's codebooks stay in
    the graph, so each parameter gets a gradient even where no user reads
    it.  In disaggregated mode all other cells' codewords are treated as
    fixed interference sources.
    """
    h = np.asarray(h, dtype=np.complex128)
    if disaggregated_cell is not None:
        ssb_dt = [s if c == disaggregated_cell else ad.stop_gradient(s)
                  for c, s in enumerate(ssb_dt)]
        csirs_dt = [s if c == disaggregated_cell else ad.stop_gradient(s)
                    for c, s in enumerate(csirs_dt)]
    serving = pin.report.b
    cell_rsrp = bm.beam_rsrp(h, bm.gather_per_user(ssb_dt, pin.beams))
    # (C, U): the precoder each cell transmits on each user's chosen resource
    resource = np.asarray(pin.subset_indices, dtype=np.intp)[:, pin.chosen]
    sinr = bm.resource_sinr(h, bm.gather_per_user(csirs_dt, resource), serving,
                            sigma2)
    return ForwardResult(pred=bm.stream_se(sinr),
                         best_rsrp=ad.select_cells(cell_rsrp, serving),
                         cell_rsrp=cell_rsrp)


def e2e_loss(targets: np.ndarray, pred: DiffTensor) -> DiffTensor:
    """Mean squared error between target and predicted per-user SE."""
    targets = np.asarray(targets, dtype=float)
    if targets.shape != pred.shape:
        raise ShapeError(f"target shape {targets.shape} != prediction {pred.shape}")
    d = ad.sub(pred, ad.constant(targets))
    return ad.mean_axis(ad.mul(d, d), axis=0)


def ssb_alignment_loss(best_rsrp: DiffTensor, sigma2: float) -> DiffTensor:
    """Negative mean broadcast rate; pulls serving-beam RSRP upward."""
    snr = ad.scale(ad.real(best_rsrp), 1.0 / sigma2)
    return ad.scale(ad.mean_axis(ad.log2_1p(snr), axis=0), -1.0)


def load_balance_loss(cell_rsrp: DiffTensor) -> DiffTensor:
    """Squared deviation of soft per-cell load shares from uniform.

    cell_rsrp: (C, U), each user's RSRP of each cell's strongest beam (the
    beam index held constant, as ``forward_model`` returns it).  It is
    normalized across cells into an attachment share; the penalty is the
    summed squared deviation of the mean share per cell from 1/C.
    Discourages codebooks whose beams capture every hotspot user onto a
    single cell, starving the others of spatial reuse.
    """
    c_cells = cell_rsrp.shape[0]
    r = ad.real(cell_rsrp)
    share = ad.div(r, ad.sum_axis(r, axis=0, keepdims=True))
    load = ad.mean_axis(share, axis=1)  # (C,)
    d = ad.sub(load, ad.constant(np.full(c_cells, 1.0 / c_cells)))
    return ad.sum_axis(ad.mul(d, d), axis=0)


class Adam:
    """Adam over complex parameters: moments on g and |g|^2.

    ``step`` skips a parameter whose ``grad`` is None, but moves one whose
    gradient is all zero by its momentum, so a parameter that the loss
    reaches must get a gradient, zero or not, on every step.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float = 1e-4):
        self.lr = lr
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, tape: Tape):
        self.step_count += 1
        t = self.step_count
        for name, p in tape.parameters.items():
            g = p.grad
            if g is None:
                continue
            if name not in self.m:
                self.m[name] = np.zeros_like(p.value)
                self.v[name] = np.zeros(p.value.shape)
            # the textbook update's operations in its order, in two scratch
            # buffers: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) |g|^2,
            # value -= lr m^ / (sqrt(v^) + eps)
            m, v = self.m[name], self.v[name]
            step = np.multiply(g, 1 - self.beta1)
            m *= self.beta1
            m += step
            scale = np.abs(g)
            np.square(scale, out=scale)
            scale *= 1 - self.beta2
            v *= self.beta2
            v += scale
            np.divide(m, 1 - self.beta1 ** t, out=step)
            step *= self.lr
            np.divide(v, 1 - self.beta2 ** t, out=scale)
            np.sqrt(scale, out=scale)
            scale += self.eps
            step /= scale
            p.value = p.value - step  # a new array: graphs may still hold the old one


def feedback_images(h: np.ndarray, prior_ssb: list, geometry: ArrayGeometry,
                    pair: cb.TransformPair, new_user_mask) -> tuple:
    """Observed feedback beamspace of one drop under the prior SSB codebooks.

    h: (C, U, T, K, N_R, NT); prior_ssb: each cell's (L, NT) prior beams.
    Noise-free RSRP of every cell's prior beams feeds the association; each
    cell's image weights its prior beams by the reported user counts and
    RSRP sums.  Returns (per-cell images, report).
    """
    rsrp = bm.rsrp_tensor(h, prior_ssb)
    report = bm.aggregate_feedback(rsrp, new_user_mask)
    obsc = [cb.beamspace_forward(beams, pair, geometry, report.beam_counts(c),
                                 report.beam_rsrp_sums(c))
            for c, beams in enumerate(prior_ssb)]
    return obsc, report


def build_dataset(config: ScenarioConfig, prior_ssb: list, n_samples: int,
                  seed: int, sigma2: float, new_user_prob: float) -> list:
    """Monte-Carlo triplets (feedback beamspace, channels, SE targets).

    Association and the observed beamspace come from the PRIOR period's SSB
    codebook, each cell's (L, NT) beams in ``prior_ssb``; users flagged new
    (prob. ``new_user_prob``) are associated but contribute nothing to the
    beamspace statistics.
    """
    pair = cb.make_transform_pair(config.geometry)
    samples = []
    for i in range(n_samples):
        drop_seed = seed * 1000003 + i
        tensor = generate_channels(config, drop_seed)
        h = np.asarray(tensor.values, dtype=np.complex128)
        n_users = h.shape[1]
        mask = _stream(drop_seed, _MASK_TAG, 0).random(n_users) < new_user_prob
        obsc, report = feedback_images(h, prior_ssb, config.geometry, pair, mask)
        targets = compute_targets(h, report.b, sigma2)
        samples.append(TrainingSample(obsc=obsc, h=h, targets=targets,
                                      new_user_mask=mask))
    return samples


def _drop_loss(sample: TrainingSample, ssb_dt, csirs_dt, sigma2, n_csi,
               ssb_weight, disaggregated_cell=None, balance_weight=0.0):
    """One drop's training loss under the given per-cell codebooks: the
    decisions of ``beam_mgmt.decide`` on the noise-free RSRP of the
    codebooks' values, then the graph of ``forward_model`` over them."""
    ssb = [s.value for s in ssb_dt]
    pin = bm.decide(bm.rsrp_tensor(sample.h, ssb), sample.h, ssb,
                    [cs.value for cs in csirs_dt], sigma2, n_csi,
                    sample.new_user_mask)
    fw = forward_model(sample.h, ssb_dt, csirs_dt, sigma2, pin,
                       disaggregated_cell=disaggregated_cell)
    loss = e2e_loss(sample.targets, fw.pred)
    if ssb_weight:
        loss = ad.add(loss, ad.scale(ssb_alignment_loss(fw.best_rsrp, sigma2),
                                     ssb_weight))
    if balance_weight:
        loss = ad.add(loss, ad.scale(load_balance_loss(fw.cell_rsrp),
                                     balance_weight))
    return loss


def _batch_losses(batch: list, generate, sigma2, n_csi, ssb_weight,
                  cell=None, balance_weight=0.0):
    """Yield each drop's loss, from one ``generate`` call on the batch's images.

    Batched codebooks (a leading drop axis) give each drop its slice; shared
    ones pass to every drop as they are.  Losses are built one at a time, so
    a caller that keeps only their values holds one drop's graph at a time.
    """
    ssb, csirs = generate([np.stack(images)
                           for images in zip(*(s.obsc for s in batch))])
    batched = ssb[0].value.ndim == 3  # (B, L, NT), not a shared (L, NT)
    for i, sample in enumerate(batch):
        ssb_i = [ad.take(t, i) for t in ssb] if batched else ssb
        csirs_i = [ad.take(t, i) for t in csirs] if batched else csirs
        yield _drop_loss(sample, ssb_i, csirs_i, sigma2, n_csi, ssb_weight,
                         cell, balance_weight)


def _batch_backward(batch: list, generate, sigma2, n_csi, ssb_weight, cell,
                    balance_weight, step: int) -> float:
    """One graph for a minibatch: every drop's loss, one backward of their mean.

    Returns the mean loss, checked for finiteness before the backward.  The
    batch's graph is released on return, before the next step builds its own.
    """
    losses = list(_batch_losses(batch, generate, sigma2, n_csi, ssb_weight,
                                cell, balance_weight))
    batch_loss = 0.0
    for loss in losses:
        batch_loss += float(loss.value.real) / len(batch)
    if not np.isfinite(batch_loss):
        raise DivergenceError(f"non-finite loss at step {step}")
    total = ad.scale(losses[0], 1.0 / len(batch))
    for loss in losses[1:]:
        total = ad.add(total, ad.scale(loss, 1.0 / len(batch)))
    ad.backward(total)
    return batch_loss


def train(dataset: list, generate, tape: Tape, sigma2: float, n_csi: int,
          epochs: int, *, lr: float, batch_size: int, seed: int,
          ssb_weight: float, val_fraction: float, balance_weight: float = 0.0,
          disaggregated_cells: int | None = None, callback=None,
          val_callback=None) -> list:
    """Mini-batch Adam loop; retains the best-validation parameters.

    ``generate`` takes a list of each cell's feedback images with a leading
    drop axis, (B, L*n_pol, H, W), and returns (ssb, csirs) lists of per-cell
    DiffTensors built from parameters registered on ``tape``: per drop,
    (B, L, NT) and (B, N_CB, NT, B_g), or shared by all drops, (L, NT) and
    (N_CB, NT, B_g).  It is called once per optimizer step and once per
    validation chunk of ``batch_size`` drops.  Each step builds one autodiff
    graph: the batch's losses, each scaled by 1/batch, are summed and
    backpropagated once, so the generator runs and is differentiated once
    per step.  A disaggregated step trains cell
    ``step % disaggregated_cells`` only.  Deterministic for a fixed seed.

    ``callback(step, loss)`` runs after each step.  ``val_callback(epoch,
    val_loss, best_epoch)`` runs after each epoch's validation pass;
    ``best_epoch`` is the epoch whose parameters are kept so far, and its
    last value is the epoch restored at the end.  Returns the per-step
    training loss curve.
    """
    if not dataset:
        raise ConfigError("training dataset is empty")
    n_val = int(round(len(dataset) * val_fraction))
    val, trainset = dataset[:n_val], dataset[n_val:]
    if not trainset:
        trainset, val = dataset, []
    opt = Adam(lr=lr)
    curve = []
    best_val, best_params, best_epoch = np.inf, None, None
    step = 0
    for epoch in range(epochs):
        order = np.random.default_rng(seed * 7919 + epoch).permutation(len(trainset))
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            cell = (step % disaggregated_cells) if disaggregated_cells else None
            tape.zero_grad()
            batch_loss = _batch_backward([trainset[j] for j in batch], generate,
                                         sigma2, n_csi, ssb_weight, cell,
                                         balance_weight, step)
            opt.step(tape)
            curve.append(batch_loss)
            if callback is not None:
                callback(step, batch_loss)
            step += 1
        if val:
            vl = 0.0
            for start in range(0, len(val), batch_size):
                for loss in _batch_losses(val[start:start + batch_size], generate,
                                          sigma2, n_csi, ssb_weight,
                                          balance_weight=balance_weight):
                    vl += float(loss.value.real) / len(val)
                    del loss  # release the drop's graph before the next
            if vl < best_val:
                best_val, best_epoch = vl, epoch
                best_params = {k: p.value.copy() for k, p in tape.parameters.items()}
            if val_callback is not None:
                val_callback(epoch, vl, best_epoch)
    if best_params is not None:
        for k, p in tape.parameters.items():
            p.value = best_params[k]
    return curve


# ----------------------------- checkpoints ------------------------------

_CKPT_MAGIC = b"BMCK"


def save_checkpoint(path, tape: Tape, opt: Adam | None = None,
                    meta: dict | None = None) -> None:
    """Versioned binary dump: JSON meta + parameter registry + moments."""
    meta_b = json.dumps(meta or {}).encode()
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<II", 1, len(meta_b)))
        f.write(meta_b)
        f.write(struct.pack("<I", len(tape.parameters)))
        for name, p in tape.parameters.items():
            nb = name.encode()
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", p.value.ndim))
            f.write(struct.pack(f"<{p.value.ndim}I", *p.value.shape))
            f.write(np.ascontiguousarray(p.value, dtype=np.complex128).tobytes())
            if opt is not None and name in opt.m:
                f.write(struct.pack("<B", 1))
                f.write(np.ascontiguousarray(opt.m[name]).tobytes())
                f.write(np.ascontiguousarray(opt.v[name]).tobytes())
            else:
                f.write(struct.pack("<B", 0))
        f.write(struct.pack("<Q", opt.step_count if opt is not None else 0))


def _read_exact(f, n: int) -> bytes:
    """Read exactly ``n`` bytes; a short read means a truncated checkpoint."""
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"truncated checkpoint: expected {n} more bytes, "
                          f"found {len(data)}")
    return data


def _unpack(f, fmt: str) -> tuple:
    return struct.unpack(fmt, _read_exact(f, struct.calcsize(fmt)))


def load_parameters(tape: Tape, loaded: Tape) -> None:
    """Give each parameter on ``tape`` the value of its namesake on ``loaded``
    (a checkpoint's tape), in registration order.  A loaded tape that lacks
    one of them or holds one of another shape is a FormatError; parameters
    that only ``loaded`` holds are ignored."""
    for name, p in tape.parameters.items():
        q = loaded.parameters.get(name)
        if q is None:
            raise FormatError(f"checkpoint lacks the generator parameter {name!r}")
        if q.shape != p.shape:
            raise FormatError(f"checkpoint parameter {name!r} has shape {q.shape}, "
                              f"the generator needs {p.shape}")
        p.value = q.value


def load_checkpoint(path) -> tuple[Tape, Adam, dict]:
    with open(path, "rb") as f:
        if f.read(4) != _CKPT_MAGIC:
            raise FormatError("not a checkpoint file")
        version, meta_len = _unpack(f, "<II")
        if version != 1:
            raise FormatError(f"unsupported checkpoint version {version}")
        try:
            meta = json.loads(_read_exact(f, meta_len).decode(),
                              parse_int=json_int64(FormatError))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"bad checkpoint metadata: {e}") from None
        (n_params,) = _unpack(f, "<I")
        tape, opt = Tape(), Adam()
        for _ in range(n_params):
            (nl,) = _unpack(f, "<I")
            name = _read_exact(f, nl).decode()
            (ndim,) = _unpack(f, "<I")
            shape = _unpack(f, f"<{ndim}I")
            count = int(np.prod(shape)) if shape else 1
            val = np.frombuffer(_read_exact(f, 16 * count),
                                dtype=np.complex128).reshape(shape)
            tape.parameter(name, val.copy())
            (has_mom,) = _unpack(f, "<B")
            if has_mom:
                opt.m[name] = np.frombuffer(_read_exact(f, 16 * count),
                                            dtype=np.complex128).reshape(shape).copy()
                opt.v[name] = np.frombuffer(_read_exact(f, 8 * count),
                                            dtype=np.float64).reshape(shape).copy()
        (opt.step_count,) = _unpack(f, "<Q")
    arrays = [p.value for p in tape.parameters.values()]
    arrays += list(opt.m.values()) + list(opt.v.values())
    if not all(np.isfinite(a).all() for a in arrays):
        raise FormatError("checkpoint holds a non-finite parameter or moment")
    return tape, opt, meta
