"""Beamforming codebooks: DFT baselines, analog constraints, beamspace maps.

Beamspace convention: the transform matrix U_{N1,N2} has entries
U[n, m] = exp(2j*pi*n*m/N2) / sqrt(N1), i.e. steering columns on a uniform
spatial-frequency grid covering one period; at N2 == N1 it is the unitary
DFT.  A beam vector f reshapes per polarization panel to an N_X x N_Y matrix
in x-major order, and its beamspace image interior is U_x^H mat(f) U_y.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .channel import ArrayGeometry
from .errors import ConfigError, FormatError, ShapeError


@dataclass
class SsbCodebook:
    """Broadcast beam-sweep codebook: l_max unit-norm analog vectors."""

    beams: np.ndarray  # (L, NT) complex
    geometry: ArrayGeometry

    def __post_init__(self):
        self.beams = np.asarray(self.beams, dtype=np.complex128)
        if self.beams.ndim != 2 or self.beams.shape[1] != self.geometry.n_elements:
            raise ShapeError(f"SSB beams shape {self.beams.shape} does not match geometry")

    @property
    def l_max(self) -> int:
        return self.beams.shape[0]


@dataclass
class CsirsCodebook:
    """Refinement codebook: n_cb precoder matrices of B_g columns each."""

    precoders: np.ndarray  # (N_CB, NT, B_g) complex
    geometry: ArrayGeometry

    def __post_init__(self):
        self.precoders = np.asarray(self.precoders, dtype=np.complex128)
        if self.precoders.ndim != 3 or self.precoders.shape[1] != self.geometry.n_elements:
            raise ShapeError(f"CSI-RS precoders shape {self.precoders.shape} bad")

    @property
    def n_cb(self) -> int:
        return self.precoders.shape[0]

    @property
    def b_g(self) -> int:
        return self.precoders.shape[2]


@dataclass
class TransformPair:
    """Beamspace transform matrices for one array geometry."""

    u_x: np.ndarray  # (N_X, N_XO)
    u_y: np.ndarray  # (N_Y, N_YO)
    u_x_pinv: np.ndarray = field(init=False)
    u_y_pinv: np.ndarray = field(init=False)

    def __post_init__(self):
        self.u_x_pinv = np.linalg.pinv(self.u_x)
        self.u_y_pinv = np.linalg.pinv(self.u_y)

    @property
    def n_xo(self) -> int:
        return self.u_x.shape[1]

    @property
    def n_yo(self) -> int:
        return self.u_y.shape[1]


def transform_matrix(n_antenna: int, n_grid: int) -> np.ndarray:
    if n_grid < n_antenna:
        raise ConfigError(f"beamspace grid {n_grid} must be >= antenna count {n_antenna}")
    n = np.arange(n_antenna)[:, None]
    m = np.arange(n_grid)[None, :]
    return np.exp(2j * np.pi * n * m / n_grid) / np.sqrt(n_antenna)


def make_transform_pair(geometry: ArrayGeometry, n_xo: int | None = None,
                        n_yo: int | None = None) -> TransformPair:
    n_xo = geometry.n_x if n_xo is None else n_xo
    n_yo = geometry.n_y if n_yo is None else n_yo
    return TransformPair(u_x=transform_matrix(geometry.n_x, n_xo),
                         u_y=transform_matrix(geometry.n_y, n_yo))


def _wrap_index(m: np.ndarray, n: int) -> np.ndarray:
    """Map grid index 0..n-1 to the symmetric index in [-n/2, n/2)."""
    return np.where(m < (n + 1) // 2, m, m - n)


def grid_sin_elevation(ky: np.ndarray, n_y: int, spacing: float = 0.5) -> np.ndarray:
    """sin(elevation) a grid beam points at (y uses a conjugated column)."""
    mw = _wrap_index(np.asarray(ky), n_y)
    return -mw / (n_y * spacing)


def _grid_candidates(n_x: int, n_y: int, elevation_window, spacing: float) -> np.ndarray:
    """(kx, ky) grid points whose elevation lies in the window, az-major rows.

    Returns a (P, 2) integer array, the ky in ascending elevation order and
    every kx under each.
    """
    lo, hi = elevation_window
    sin_el = grid_sin_elevation(np.arange(n_y), n_y, spacing)
    ky_order = np.argsort(sin_el)
    ky = ky_order[(lo <= sin_el[ky_order]) & (sin_el[ky_order] <= hi)]
    return np.stack([np.tile(np.arange(n_x), len(ky)), np.repeat(ky, n_x)], axis=1)


def _grid_beams(u_x: np.ndarray, u_y: np.ndarray, kx: np.ndarray, ky: np.ndarray,
                geometry: ArrayGeometry) -> np.ndarray:
    """Unit-norm beams (P, NT) from grid columns (kx[p], ky[p]).

    Each panel is the outer product u_x[:, kx] conj(u_y[:, ky])^T,
    vectorized x-major; a dual-pol beam repeats it on both panels.
    """
    panels = (u_x[:, kx].T[:, :, None] * np.conj(u_y[:, ky]).T[:, None, :]).reshape(
        len(kx), u_x.shape[0] * u_y.shape[0])
    if geometry.dual_polarized:
        return np.concatenate([panels, panels], axis=1) / np.sqrt(2.0)
    return panels


def build_dft_ssb(geometry: ArrayGeometry, l_max: int,
                  elevation_window=(-0.6, 0.05)) -> SsbCodebook:
    """Wide-beam SSB codebook on the critically-sampled grid, downtilt pruned."""
    u_x = transform_matrix(geometry.n_x, geometry.n_x)
    u_y = transform_matrix(geometry.n_y, geometry.n_y)
    cands = _grid_candidates(geometry.n_x, geometry.n_y, elevation_window,
                             geometry.element_spacing)
    if l_max > len(cands):
        raise ConfigError(f"l_max={l_max} exceeds {len(cands)} unpruned directions")
    picks = np.linspace(0, len(cands), l_max, endpoint=False).astype(int)
    return SsbCodebook(beams=_grid_beams(u_x, u_y, *cands[picks].T, geometry),
                       geometry=geometry)


def build_dft_csirs(geometry: ArrayGeometry, n_cb: int, b_g: int,
                    oversampling: int = 4,
                    elevation_window=(-0.6, 0.05)) -> CsirsCodebook:
    """Narrow-beam codebook on an oversampled grid, B_g adjacent beams per precoder."""
    u_x = transform_matrix(geometry.n_x, oversampling * geometry.n_x)
    u_y = transform_matrix(geometry.n_y, oversampling * geometry.n_y)
    cands = _grid_candidates(oversampling * geometry.n_x, oversampling * geometry.n_y,
                             elevation_window, geometry.element_spacing)
    if n_cb * b_g > len(cands):
        raise ConfigError(f"n_cb*b_g={n_cb * b_g} exceeds {len(cands)} grid beams")
    picks = np.linspace(0, len(cands), n_cb * b_g, endpoint=False).astype(int)
    cols = _grid_beams(u_x, u_y, *cands[picks].T, geometry)  # (N_CB*B_g, NT)
    precoders = np.ascontiguousarray(
        cols.reshape(n_cb, b_g, -1).transpose(0, 2, 1))  # (N_CB, NT, B_g)
    return CsirsCodebook(precoders=precoders, geometry=geometry)


def project_analog(beams: np.ndarray, b_phase: int | None) -> np.ndarray:
    """Constant-modulus projection onto the b_phase-bit phase grid.

    b_phase=None means ideal phase shifters: phases kept, magnitudes
    equalized.  Zero entries take phase 0 before quantization.
    """
    beams = np.asarray(beams, dtype=np.complex128)
    mag = 1.0 / np.sqrt(beams.shape[-1])
    phase = np.where(beams == 0, 0.0, np.angle(beams))
    if b_phase is not None:
        if b_phase < 1:
            raise ConfigError("b_phase must be >= 1")
        step = 2.0 * np.pi / (2 ** b_phase)
        phase = np.ceil(phase / step - 0.5) * step  # ties toward smaller phase
    return mag * np.exp(1j * phase)


def beamspace_forward(beams: np.ndarray, pair: TransformPair, geometry: ArrayGeometry,
                      beam_counts: np.ndarray | None = None,
                      beam_rsrp: np.ndarray | None = None) -> np.ndarray:
    """Beamspace images plus the padded feedback row/column.

    Returns (n_beams * n_pol, N_XO + 1, N_YO + 1), image i * n_pol + p
    holding polarization p of beam i.  The interior [:N_XO, :N_YO] is the
    beamspace U_x^H mat(f) U_y; cell [N_XO, 0] holds beam_counts[i], the
    number of users that selected the beam, and cell [0, N_YO] beam_rsrp[i],
    their summed RSRP.  Both default to zero (no feedback embedded); the
    rest of the padding is zero.
    """
    n_pol = 2 if geometry.dual_polarized else 1
    panels = np.asarray(beams, dtype=np.complex128).reshape(-1, geometry.n_x, geometry.n_y)
    images = np.zeros((panels.shape[0], pair.n_xo + 1, pair.n_yo + 1), dtype=np.complex128)
    images[:, :pair.n_xo, :pair.n_yo] = np.conj(pair.u_x.T) @ panels @ pair.u_y
    if beam_counts is not None:
        images[:, pair.n_xo, 0] = np.repeat(np.asarray(beam_counts, float), n_pol)
    if beam_rsrp is not None:
        images[:, 0, pair.n_yo] = np.repeat(np.asarray(beam_rsrp, float), n_pol)
    return images


def beamspace_inverse(interiors, pair: TransformPair,
                      geometry: ArrayGeometry) -> ad.DiffTensor:
    """Beam vectors (pre-projection) of beamspace interiors.

    interiors: an array or DiffTensor, (..., n_beams * n_pol, N_XO, N_YO)
    over any leading axes.  Each panel maps back as
    mat(f) = (U_x^H)^+ I (U_y)^+; returns (..., n_beams, NT).
    """
    interiors = ad.as_tensor(interiors)
    if interiors.shape[-2:] != (pair.n_xo, pair.n_yo) or interiors.value.ndim < 3:
        raise ShapeError(f"interior shape {interiors.shape} does not match grid")
    n_pol = 2 if geometry.dual_polarized else 1
    n_img = interiors.shape[-3]
    if n_img % n_pol:
        raise ShapeError("image count not divisible by polarization count")
    panels = ad.matmul(ad.matmul(np.conj(pair.u_x_pinv.T), interiors),
                       pair.u_y_pinv)  # (..., n_img, N_X, N_Y)
    return ad.reshape(panels, interiors.shape[:-3] + (
        n_img // n_pol, geometry.n_elements))


# ----------------------------- file format -------------------------------

def _beams_to_pairs(a: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _pairs_to_beams(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows],
                    dtype=np.complex128)


def save_codebooks(path, ssb: SsbCodebook, csirs: CsirsCodebook) -> None:
    """Structured-text export; float64 round-trip safe via repr-style floats."""
    geo = ssb.geometry
    doc = {
        "format": "beamweaver-codebook-v1",
        "geometry": {
            "n_x": geo.n_x, "n_y": geo.n_y,
            "dual_polarized": geo.dual_polarized,
            "element_spacing": geo.element_spacing,
            "carrier_frequency": geo.carrier_frequency,
        },
        "ssb": _beams_to_pairs(ssb.beams),
        "csirs": [_beams_to_pairs(p) for p in csirs.precoders],
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_codebooks(path) -> tuple[SsbCodebook, CsirsCodebook]:
    """Read a ``save_codebooks`` file.

    Raises FormatError for a file that is not a well-formed document (not
    JSON, a missing or unknown key, beams that are not finite [re, im] pairs
    or do not fit the geometry) and ConfigError for another format tag.
    """
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise FormatError(f"codebook file is not JSON: {e}") from None
    if not isinstance(doc, dict):
        raise FormatError("codebook file does not hold a JSON object")
    if doc.get("format") != "beamweaver-codebook-v1":
        raise ConfigError("unrecognized codebook file format")
    try:
        geo = ArrayGeometry(**doc["geometry"])
        ssb = SsbCodebook(beams=_pairs_to_beams(doc["ssb"]), geometry=geo)
        precoders = np.stack([_pairs_to_beams(p) for p in doc["csirs"]])
        csirs = CsirsCodebook(precoders=precoders, geometry=geo)
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"malformed codebook file: {e!r}") from None
    if not (np.isfinite(ssb.beams).all() and np.isfinite(csirs.precoders).all()):
        raise FormatError("codebook file holds a non-finite beam entry")
    return ssb, csirs
