"""Naive reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way — explicit
loops, sort-based medians, closed-form regression sums — and shares no code
with the package beyond numpy primitives.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence


def naive_counts(events: Iterable[tuple[str, str, int]], window: Sequence[int]):
    """Brute-force (track, year) -> {user: plays} from (user, track, year) triples."""
    keep = set(window)
    out: dict[tuple[str, int], dict[str, int]] = {}
    for user, track, year in events:
        if year in keep:
            bucket = out.setdefault((track, year), {})
            bucket[user] = bucket.get(user, 0) + 1
    return out


def naive_median(values: Sequence[float]) -> float:
    s = sorted(values)
    n = len(s)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2 == 1:
        return float(s[mid])
    return (s[mid - 1] + s[mid]) / 2.0


def naive_track_year(user_counts: Mapping[str, int]):
    """(total, unique, repeat, median) via direct loops."""
    total = 0
    repeat = 0
    for c in user_counts.values():
        total += c
        if c >= 2:
            repeat += 1
    return total, len(user_counts), repeat, naive_median(list(user_counts.values()))


def naive_ols_slope(values: Sequence[float]) -> float:
    """Closed-form slope: (n Σxy − Σx Σy) / (n Σx² − (Σx)²), x = 0..n−1."""
    n = len(values)
    if n < 2:
        return 0.0
    sx = sum(range(n))
    sy = sum(values)
    sxy = sum(i * v for i, v in enumerate(values))
    sxx = sum(i * i for i in range(n))
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def naive_pstdev(values: Sequence[float]) -> float:
    n = len(values)
    m = sum(values) / n
    return math.sqrt(sum((v - m) ** 2 for v in values) / n)


def naive_song_features(yearly: Mapping[int, tuple], years: Sequence[int]):
    """(total, unique, repeat, median_of_medians, loyalty, repeat_ratio) from
    per-year (total, unique, repeat, median) tuples; missing years are zeros."""
    rows = [yearly.get(y, (0, 0, 0, 0.0)) for y in years]
    total = sum(r[0] for r in rows)
    unique = sum(r[1] for r in rows)
    repeat = sum(r[2] for r in rows)
    medmed = naive_median([r[3] for r in rows])
    loyalty = repeat / unique if unique > 0 else 0.0
    rr = (total - unique) / total if total > 0 else 0.0
    return total, unique, repeat, medmed, loyalty, rr


def naive_artist_features(per_track_yearly: Mapping[str, Mapping[int, tuple]], years: Sequence[int]):
    """(loyalty_rate, loyalty_growth, reach_growth, loyalty_cons, engagement_cons)
    from per-track, per-year (total, unique, repeat, median) tuples."""
    L, R, E = [], [], []
    for y in years:
        uniq = 0
        rep = 0
        meds = []
        for track_years in per_track_yearly.values():
            row = track_years.get(y)
            if row is None:
                continue
            uniq += row[1]
            rep += row[2]
            if row[1] > 0:
                meds.append(row[3])
        L.append(rep / uniq if uniq > 0 else 0.0)
        R.append(float(uniq))
        E.append(naive_median(meds) if meds else 0.0)
    active = [l for l, r in zip(L, R) if r > 0]
    loyalty_rate = sum(active) / len(active) if active else 0.0
    return (
        loyalty_rate,
        naive_ols_slope(L),
        naive_ols_slope([math.log1p(r) for r in R]),
        1.0 / (1.0 + naive_pstdev(L)),
        1.0 / (1.0 + naive_pstdev(E)),
    )


def naive_rel_mse(x, x_hat) -> float:
    """Direct-formula recompute with explicit loops over a small matrix."""
    n, d = len(x), len(x[0])
    col_means = [sum(x[i][j] for i in range(n)) / n for j in range(d)]
    sse = sum((x[i][j] - x_hat[i][j]) ** 2 for i in range(n) for j in range(d))
    sst = sum((x[i][j] - col_means[j]) ** 2 for i in range(n) for j in range(d))
    return sse / sst


def pca_relmse(X, r: int) -> float:
    """Reconstruction RelMSE of the best rank-r linear model (PCA oracle)."""
    import numpy as np

    Xc = X - X.mean(axis=0)
    s = np.linalg.svd(Xc, compute_uv=False)
    total = float(np.sum(s**2))
    return float(np.sum(s[r:] ** 2)) / total


def pca_holdout_relmse(X, group_name: str, r: int, seed: int = 46, val_fraction: float = 0.1) -> float:
    """Rank-r PCA fit on the scaled train rows, scored on the scaled holdout —
    the same split and standardization the group trainer uses, so its RelMSE
    is directly comparable to the trained model's."""
    import numpy as np

    from popgate.data.scaling import scaler_apply, scaler_fit
    from popgate.seeding import rng_for

    n = X.shape[0]
    n_val = max(1, int(round(val_fraction * n)))
    perm = rng_for(seed, f"ae-val-{group_name}").permutation(n)
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    sc = scaler_fit(X[tr_idx], "zscore")
    Xtr, Xva = scaler_apply(sc, X[tr_idx]), scaler_apply(sc, X[val_idx])
    mu = Xtr.mean(axis=0)
    _, _, Vt = np.linalg.svd(Xtr - mu, full_matrices=False)
    P = Vt[:r].T
    Xva_hat = (Xva - mu) @ P @ P.T + mu
    sst = float(np.sum((Xva - Xva.mean(axis=0)) ** 2))
    return float(np.sum((Xva - Xva_hat) ** 2)) / sst


def naive_ctd_matrix(
    events: Iterable[tuple[str, str, int]],
    track_artist: Mapping[str, str],
    mode: str,
    years: Sequence[int],
):
    """Full single-pass recomputation: (sorted track ids, list of row lists)."""
    counts = naive_counts(events, years)
    per_track: dict[str, dict[int, tuple]] = {}
    for (track, year), uc in counts.items():
        per_track.setdefault(track, {})[year] = naive_track_year(uc)
    ids = sorted(t for t in per_track if t in track_artist)
    artists: dict[str, dict[str, dict[int, tuple]]] = {}
    for t in ids:
        artists.setdefault(track_artist[t], {})[t] = per_track[t]
    artist_feats = {a: naive_artist_features(tr, years) for a, tr in artists.items()}
    rows = []
    for t in ids:
        song = naive_song_features(per_track[t], years)
        row = [float(song[0]), float(song[1]), float(song[2]), song[3], song[4], song[5]]
        row.extend(artist_feats[track_artist[t]])
        if mode == "temporal":
            for y in years:
                ty = per_track[t].get(y, (0, 0, 0, 0.0))
                row.extend((float(ty[0]), float(ty[1]), float(ty[2]), ty[3]))
        rows.append(row)
    return ids, rows


def per_param_adam_step(values, grads, ms, vs, decays, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam/AdamW step written per parameter with full-size temporaries:
    decoupled decay shrink (skipped at decay 0), both moments, then the
    bias-corrected delta. Updates `values` in place and rebinds `ms`/`vs`."""
    import numpy as np

    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for i, (x, g, wd) in enumerate(zip(values, grads, decays)):
        if wd != 0.0:
            x -= lr * wd * x
        ms[i] = b1 * ms[i] + (1.0 - b1) * g
        vs[i] = b2 * vs[i] + (1.0 - b2) * (g * g)
        m_hat = ms[i] / bc1
        v_hat = vs[i] / bc2
        x -= lr * m_hat / (np.sqrt(v_hat) + eps)


def csv_writer_matrix_bytes(ids, names, X) -> bytes:
    """A numeric table as `csv.writer` writes it cell by cell: the header,
    then `[id, *map(repr, row.tolist())]` per row, "\\n"-terminated, UTF-8."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["track_id", *names])
    for tid, row in zip(ids, X):
        writer.writerow([tid, *map(repr, row.tolist())])
    return buf.getvalue().encode("utf-8")
