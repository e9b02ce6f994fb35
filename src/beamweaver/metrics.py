"""Monte-Carlo evaluation pipeline and metric aggregation.

One "drop" = one user placement: SSB sweep -> feedback -> CSI-RS subsets ->
per-user SINR/SE -> data plane -> ESSE.  The data plane runs per user at its
serving cell (CSI-RS pilots, channel estimate, PMI feedback; one batched pass
over all users), then per cell (scheduling, RZF precoding).  Rows are
per-user with the drop-level ESSE repeated, serialized to a versioned CSV.
"""
from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import beam_mgmt as bm
from . import channel as ch
from . import link
from .errors import ConfigError, FormatError

CSV_SCHEMA = "bmw-metrics-v1"
_FIELDS = ["drop", "user", "cell", "beam", "rsrp_dbm", "se", "eff_sinr_db",
           "sig_power", "int_noise_power", "scheduled", "data_rate", "esse",
           "alloc_cell"]
_INT_FIELDS = ("drop", "user", "cell", "beam", "scheduled")
_ZERO_SINR = {"int_noise_power": np.inf, "eff_sinr_db": -np.inf}
_PILOT_TAG = 13


@dataclass
class EvalSettings:
    """PMI and overhead knobs; sizes come from the codebooks and ``NblDims``."""

    l_csi: int = 4
    s_b: int = 8
    k_ssb: int = 4
    t_period: int = 160


def _to_dbm(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.maximum(p, 1e-300))


def evaluate_drop(config: ch.ScenarioConfig, settings: EvalSettings,
                  ssb_beams: list, precoders: list, n_csi: int, drop_seed: int,
                  tensor: ch.ChannelTensor) -> list[dict]:
    """Run the full protocol for one drop; returns per-user metric rows.

    ssb_beams, precoders and n_csi: as ``beam_mgmt.decide`` takes them.
    ``tensor`` is the drop's channel, ``generate_channels(config,
    drop_seed)``.
    """
    sigma2 = ch.noise_variance(config)
    hv = np.asarray(tensor.values, dtype=np.complex128)
    c_cells, n_users, t_slots, k_sub = hv.shape[:4]
    pin = bm.decide(bm.measure_rsrp(hv, ssb_beams, sigma2, drop_seed), hv,
                    ssb_beams, precoders, sigma2, n_csi)
    report, subsets, chosen = pin.report, pin.subsets, pin.chosen
    users = np.arange(n_users)
    se_best = pin.se[users, chosen]
    eff = bm.effective_sinr(np.maximum(se_best, 0.0))
    # signal / interference+noise decomposition at the selected resource:
    # v[u] = H[b_u, u] F_u, one product per user on a view of its channel
    f = subsets[report.b, chosen]  # (U, NT, B_g)
    v = np.empty(hv.shape[1:-1] + f.shape[-1:], dtype=np.complex128)
    for u in users:
        np.matmul(hv[report.b[u], u], f[u], out=v[u])
    sig_u = (np.abs(v) ** 2).sum(axis=(-1, -2)).mean(axis=(1, 2))  # v: (U, T, K, N_R, B_g)
    snr_eq = np.exp2(se_best) - 1.0
    in_u = np.where(snr_eq > 0, sig_u / np.where(snr_eq > 0, snr_eq, 1.0), np.inf)
    # data plane, per user at its serving cell: the CSI-RS pilot block on the
    # chosen resource (the first slot of v) -> LS/MMSE estimate -> PMI; then
    # per cell: scheduling over its own users -> RZF -> ESSE over all cells.
    # One (C, 2, ...) noise block keeps the order of C per-cell re/im draws.
    y = v[:, 0]  # (U, K, N_R, B_g)
    draws = ch._stream(drop_seed, _PILOT_TAG, 0).standard_normal(
        (c_cells, 2) + y.shape)[report.b, :, users]  # (U, 2, K, N_R, B_g)
    noise = np.sqrt(sigma2 / 2.0) * (draws[:, 0] + 1j * draws[:, 1])
    est = link.estimate_channel(y + noise, sigma2, settings.s_b)
    fb, recon = link.quantize_pmi(est, l_csi=settings.l_csi)
    sets = []
    for c in range(c_cells):
        cand = list(report.users_of_cell(c))
        sched = link.schedule_users(recon, fb.gains, chosen, subsets[c],
                                    cand, sigma2) if cand else []
        sets.append(link.build_precoders(recon, fb.gains, chosen,
                                         subsets[c], sched, sigma2,
                                         est.subband_of_k))
    alpha = link.data_fraction(len(ssb_beams[0]), n_csi, settings.k_ssb,
                               k_sub, settings.t_period)
    esse = link.transmit_and_score(hv, sets, sigma2, alpha=alpha)
    rows = []
    for u in users:
        rows.append({
            "drop": int(drop_seed), "user": int(u), "cell": int(report.b[u]),
            "beam": int(report.m[u]),
            "rsrp_dbm": float(_to_dbm(np.array(report.p[u]))),
            "se": float(se_best[u]), "eff_sinr_db": float(eff[u]),
            "sig_power": float(sig_u[u]), "int_noise_power": float(in_u[u]),
            "scheduled": int(u in esse.per_user_rate),
            "data_rate": float(esse.per_user_rate.get(u, 0.0)),
            "esse": float(esse.esse),
            "alloc_cell": float(esse.allocation[report.b[u]]),
        })
    return rows


def write_metrics(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# schema={CSV_SCHEMA}\n")
        w = csv.DictWriter(f, fieldnames=_FIELDS)
        w.writeheader()
        for row in rows:
            w.writerow(row)


def _parse_row(row: dict, line: int) -> dict:
    """Typed values of one row; FormatError for what the writer cannot write."""
    if None in row or None in row.values():
        raise FormatError(f"metrics line {line}: expected {len(_FIELDS)} fields")
    try:
        out = {k: (int if k in _INT_FIELDS else float)(row[k]) for k in _FIELDS}
    except ValueError as e:
        raise FormatError(f"metrics line {line}: {e}") from None
    zero_sinr = np.exp2(out["se"]) == 1.0  # the writer's only non-finite case
    for k, v in out.items():
        if isinstance(v, float) and not (np.isfinite(v) or
                                         (zero_sinr and v == _ZERO_SINR.get(k))):
            raise FormatError(f"metrics line {line}: {k} = {v}")
    return out


def read_metrics(path) -> list[dict]:
    """Rows of a metrics CSV.  Every value is finite, except int_noise_power =
    inf and eff_sinr_db = -inf where 2^SE - 1 rounds to 0, and no (drop,
    user) pair repeats; any other layout, encoding or value is a
    FormatError."""
    rows, seen = [], set()
    try:
        with open(path, encoding="utf-8", newline="") as f:
            first = f.readline().strip()
            if first != f"# schema={CSV_SCHEMA}":
                raise FormatError(f"unexpected metrics schema line: {first!r}")
            reader = csv.DictReader(f)
            if reader.fieldnames != _FIELDS:
                raise FormatError(f"unexpected metrics header: {reader.fieldnames}")
            for row in reader:
                line = reader.line_num + 1  # +1: schema line
                out = _parse_row(row, line)
                key = (out["drop"], out["user"])
                if key in seen:
                    raise FormatError(f"metrics line {line}: repeats drop "
                                      f"{key[0]}, user {key[1]}")
                seen.add(key)
                rows.append(out)
    except (UnicodeDecodeError, csv.Error) as e:
        raise FormatError(f"unreadable metrics file: {e}") from None
    return rows


def _first_esse(rows: list[dict]) -> dict:
    """Drop -> the ESSE of its first row (the value every row repeats)."""
    out = {}
    for r in rows:
        out.setdefault(r["drop"], r["esse"])
    return out


def compare_metrics(rows_a: list[dict], rows_b: list[dict]) -> dict:
    """Paired deltas of B over A: per-user RSRP, per-drop ESSE, allocations."""
    key = lambda r: (r["drop"], r["user"])
    a_map = {key(r): r for r in rows_a}
    b_map = {key(r): r for r in rows_b}
    if set(a_map) != set(b_map):
        raise ConfigError("metric files cover different (drop, user) sets")
    keys = sorted(a_map)
    if not keys:
        raise FormatError("metric files hold no rows")
    rsrp_delta = np.array([b_map[k]["rsrp_dbm"] - a_map[k]["rsrp_dbm"] for k in keys])
    drops = sorted({k[0] for k in keys})
    first_a, first_b = _first_esse(rows_a), _first_esse(rows_b)
    esse_a = np.array([first_a[d] for d in drops])
    esse_b = np.array([first_b[d] for d in drops])
    esse_delta = esse_b - esse_a
    served = esse_a > 0
    ratio = esse_b[served] / esse_a[served]
    pct = np.arange(1, 100)
    in_a = np.array([a_map[k]["int_noise_power"] for k in keys])
    in_b = np.array([b_map[k]["int_noise_power"] for k in keys])
    fin = np.isfinite(in_a) & np.isfinite(in_b)

    def alloc(rows):
        counts = Counter(r["cell"] for r in rows)
        return {str(c): counts[c] / len(rows) for c in sorted(counts)}

    return {
        "pairs": len(keys),
        "drops": len(drops),
        "rsrp_delta_db": {
            "median": float(np.median(rsrp_delta)),
            "mean": float(np.mean(rsrp_delta)),
            "regressed_fraction": float(np.mean(rsrp_delta < 0.0)),
            "cdf_percentiles": [float(v) for v in np.percentile(rsrp_delta, pct)],
        },
        "esse": {
            "median_delta": float(np.median(esse_delta)),
            "median_ratio": float(np.median(ratio)) if served.any() else None,
            "nonregressing_fraction": float(np.mean(esse_delta >= 0.0)),
        },
        "int_noise_mean_a": float(np.mean(in_a[fin])) if fin.any() else None,
        "int_noise_mean_b": float(np.mean(in_b[fin])) if fin.any() else None,
        "allocation_a": alloc(rows_a),
        "allocation_b": alloc(rows_b),
    }
