"""Naive reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way — explicit
loops, sort-based medians, closed-form regression sums — and shares no code
with the package beyond numpy primitives. The reference training loops at
the end are the exception: they run the package's layers and optimizers.
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
    then `[id, *map(repr, row.tolist())]` per row, "\\n"-terminated, UTF-8.
    An id that holds a "\\r" is quoted, which csv.writer does only when
    the "\\r" is part of its line terminator."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["track_id", *names])
    for tid, row in zip(ids, X):
        cells = [tid, *map(repr, row.tolist())]
        if "\r" in tid:
            buf.write(",".join(['"' + tid.replace('"', '""') + '"', *cells[1:]]) + "\n")
        else:
            writer.writerow(cells)
    return buf.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# reference layer kernels: the numpy-wrapper forms (np.sum, np.mean,
# ndarray.var, boolean-mask gathers) whose rounding the package's direct ufunc
# calls must repeat bit for bit. Activations are named by kind, with `param`
# the ELU alpha or the LeakyReLU slope.

_SIG_LO = 2.2250738585072014e-308  # float64 tiny
_SIG_HI = 0.9999999999999999  # nextafter(1.0, 0.0)


def ref_activation_forward(x, kind: str, param: float = 0.0):
    import numpy as np

    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        bad = int(np.size(x) - np.count_nonzero(np.isfinite(x)))
        raise ValueError(f"activation input contains {bad} non-finite entries")
    if kind == "elu":
        out = x.copy()
        neg = x <= 0
        out[neg] = param * np.expm1(x[neg])
        return out
    if kind == "leaky_relu":
        return np.where(x > 0, x, param * x)
    if kind == "sigmoid":
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return np.clip(out, _SIG_LO, _SIG_HI, out=out)
    if kind == "identity":
        return x.copy()
    raise ValueError(kind)


def ref_activation_backward(grad, pre, out, kind: str, param: float = 0.0):
    import numpy as np

    if kind == "elu":
        return grad * np.where(pre > 0, 1.0, out + param)
    if kind == "leaky_relu":
        return grad * np.where(pre > 0, 1.0, param)
    if kind == "sigmoid":
        return grad * out * (1.0 - out)
    if kind == "identity":
        return grad
    raise ValueError(kind)


def ref_batchnorm_forward(x, gamma, beta, running_mean, running_var, momentum, eps, train):
    """(output, new running mean, new running var, cache for the backward)."""
    import numpy as np

    if train:
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        running_mean = (1.0 - momentum) * running_mean + momentum * mean
        running_var = (1.0 - momentum) * running_var + momentum * var
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x - mean) * inv_std
        cache = ("train", x, xhat, mean, inv_std)
    else:
        xhat = (x - running_mean) / np.sqrt(running_var + eps)
        cache = ("eval", xhat)
    return gamma * xhat + beta, running_mean, running_var, cache


def ref_batchnorm_backward(grad, gamma, running_var, eps, cache):
    """(input gradient, gamma gradient, beta gradient) of one call."""
    import numpy as np

    if cache[0] == "eval":
        xhat = cache[1]
        return (grad * gamma / np.sqrt(running_var + eps),
                (grad * xhat).sum(axis=0), grad.sum(axis=0))
    _, x, xhat, mean, inv_std = cache
    n = x.shape[0]
    dxhat = grad * gamma
    dvar = np.sum(dxhat * (x - mean), axis=0) * (-0.5) * inv_std**3
    dmean = -np.sum(dxhat, axis=0) * inv_std + dvar * np.mean(-2.0 * (x - mean), axis=0)
    dx = dxhat * inv_std + dvar * 2.0 * (x - mean) / n + dmean / n
    return dx, (grad * xhat).sum(axis=0), grad.sum(axis=0)


def ref_dropout_mask(rng, shape, p: float):
    import numpy as np

    return (rng.random(shape) >= p).astype(np.float64) / (1.0 - p)


def ref_mse_loss(pred, target):
    import numpy as np

    diff = pred - target
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


def ref_softmax(logits, axis: int = -1):
    import numpy as np

    if not np.all(np.isfinite(logits)):
        raise ValueError("softmax input contains non-finite entries")
    e = np.exp(logits - logits.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def ref_clip_factor(grads, max_norm: float) -> float:
    """The factor global-norm clipping applies to every gradient."""
    import numpy as np

    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    return 1.0 if norm <= max_norm or norm == 0.0 else max_norm / norm


def ref_weight_grad(acc, x, grad):
    """A dense layer's weight gradient accumulated through a product-sized
    temporary: `acc + x.T @ grad`."""
    return acc + x.T @ grad


# ---------------------------------------------------------------------------
# reference training loops: the two hand-written epoch loops that phase 1 and
# phase 2 ran before they shared one, and the autoencoder's loop from when it
# kept its best epoch in memory. They drive the package's own layers,
# optimizers and early-stopping machine, so they check only the loop around
# them: the streams, the batch order, the clip/step order, the snapshot and
# the history.


def ref_phase1_train(branch, x_train, y_train, x_val, y_val, cfg, seed) -> dict:
    import numpy as np

    from popgate.exceptions import ShapeError
    from popgate.fusion.train import _unit_targets
    from popgate.nn.control import TrainControl
    from popgate.nn.losses import mse_loss
    from popgate.nn.optim import Adam, clip_grad_norm
    from popgate.nn.layers import snapshot_state
    from popgate.seeding import rng_for

    y_train = _unit_targets(y_train, f"{branch.modality} phase 1 train")
    y_val = _unit_targets(y_val, f"{branch.modality} phase 1 val")
    x_train = np.asarray(x_train, dtype=np.float64)
    x_val = np.asarray(x_val, dtype=np.float64)
    if x_train.shape[0] != y_train.shape[0]:
        raise ShapeError(f"train rows {x_train.shape[0]} != targets {y_train.shape[0]}")
    if x_val.shape[0] != y_val.shape[0]:
        raise ShapeError(f"val rows {x_val.shape[0]} != targets {y_val.shape[0]}")

    n = x_train.shape[0]
    yt_col = y_train.reshape(-1, 1)
    yv_col = y_val.reshape(-1, 1)
    opt = Adam(branch.params(), lr=cfg.lr)
    control = TrainControl(cfg.lr, patience=cfg.patience, plateau_patience=cfg.plateau_patience)
    best = snapshot_state(branch.state_arrays())
    history: dict = {"train_loss": [], "val_mse": []}
    tag = f"phase1-{branch.modality}"

    epochs_run = 0
    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        order = rng_for(seed, f"{tag}-shuffle-{epoch}").permutation(n)
        drop_rng = rng_for(seed, f"{tag}-dropout-{epoch}")
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            opt.zero_grad()
            _, y_hat = branch.forward(x_train[idx], train=True, rng=drop_rng)
            loss, d_yhat = mse_loss(y_hat, yt_col[idx])
            branch.backward(None, d_yhat)
            clip_grad_norm(opt.params, cfg.clip_norm)
            opt.step()
            epoch_loss += loss * idx.size
        history["train_loss"].append(epoch_loss / n)

        _, yv_hat = branch.forward(x_val, train=False)
        val_mse, _ = mse_loss(yv_hat, yv_col)
        history["val_mse"].append(val_mse)
        opt.lr = control.update(val_mse)
        if control.improved:
            snapshot_state(branch.state_arrays(), into=best)
        if control.should_stop:
            break

    branch.load_state(best)
    branch.trained = True
    history.update(
        best_epoch=control.best_epoch,
        best_val_mse=control.best_metric,
        epochs_run=epochs_run,
        lr_reductions=control.num_reductions,
    )
    return history


def ref_phase2_train(model, xs_train, y_train, xs_val, y_val, weights, cfg, seed) -> dict:
    from popgate.exceptions import PopgateError
    from popgate.config import MODALITIES
    from popgate.fusion.model import ensemble_loss
    from popgate.fusion.train import _unit_targets
    from popgate.nn.control import TrainControl
    from popgate.nn.losses import mse_loss
    from popgate.nn.optim import AdamW, clip_grad_norm
    from popgate.nn.layers import snapshot_state
    from popgate.seeding import rng_for

    untrained = [m for m in MODALITIES if not model.branches[m].trained]
    if untrained:
        raise PopgateError(
            f"phase 2 requires phase-1-trained branches; untrained: {untrained}"
        )
    y_train = _unit_targets(y_train, "phase 2 train")
    y_val = _unit_targets(y_val, "phase 2 val")
    n = y_train.shape[0]

    groups: list = [(model.gate.params(), 0.0)]
    if not cfg.freeze_branches:
        for m in MODALITIES:
            wd = 0.0 if m == "social" else cfg.weight_decay
            groups.append((model.branches[m].params(), wd))
    opt = AdamW(groups, lr=cfg.lr)
    control = TrainControl(cfg.lr, patience=cfg.patience, plateau_patience=cfg.plateau_patience)

    initial = model.forward(xs_val, train=False)
    initial_val, _ = mse_loss(initial.yhat, y_val)
    control.update(initial_val)
    best = snapshot_state(model.state_arrays())
    history: dict = {"train_loss": [], "val_mse": [], "initial_val_mse": initial_val}

    epochs_run = 0
    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        order = rng_for(seed, f"phase2-shuffle-{epoch}").permutation(n)
        drop_rng = rng_for(seed, f"phase2-dropout-{epoch}")
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = {m: xs_train[m][idx] for m in MODALITIES}
            opt.zero_grad()
            out = model.forward(xb, train=True, rng=drop_rng, branch_train=not cfg.freeze_branches)
            breakdown, d_yhat, d_branch = ensemble_loss(y_train[idx], out, weights)
            model.backward(d_yhat, d_branch, into_branches=not cfg.freeze_branches)
            clip_grad_norm(opt.params, cfg.clip_norm)
            opt.step()
            epoch_loss += breakdown.total * idx.size
        history["train_loss"].append(epoch_loss / n)

        out = model.forward(xs_val, train=False)
        val_mse, _ = mse_loss(out.yhat, y_val)
        history["val_mse"].append(val_mse)
        opt.lr = control.update(val_mse)
        if control.improved:
            snapshot_state(model.state_arrays(), into=best)
        if control.should_stop:
            break

    model.load_state(best)
    history.update(
        best_epoch=control.best_epoch,
        best_val_mse=control.best_metric,
        epochs_run=epochs_run,
        lr_reductions=control.num_reductions,
    )
    return history


def ref_train_group_autoencoder(group, data, cfg, seed):
    """The autoencoder trainer as it was before it kept its best epoch in the
    checkpoint file: the best epoch is a snapshot in memory, and the model
    returns with it loaded. Returns (model, scaler, history)."""
    import numpy as np

    from popgate.autoenc.model import Autoencoder, ae_loss, lambda_for
    from popgate.autoenc.train import rel_mse
    from popgate.data.scaling import scaler_apply, scaler_fit
    from popgate.exceptions import ShapeError
    from popgate.nn.control import TrainControl
    from popgate.nn.optim import Adam, clip_grad_norm
    from popgate.nn.layers import snapshot_state
    from popgate.seeding import rng_for

    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != group.d:
        raise ShapeError(f"group {group.name!r} expects width {group.d}, got {X.shape}")
    n = X.shape[0]
    n_val = max(1, int(round(cfg.val_fraction * n)))
    perm = rng_for(seed, f"ae-val-{group.name}").permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    scaler = scaler_fit(X[train_idx], "zscore")
    Xtr = scaler_apply(scaler, X[train_idx])
    Xva = scaler_apply(scaler, X[val_idx])

    model = Autoencoder(group.d, group.d_enc, rng_for(seed, f"ae-init-{group.name}"),
                        name=group.name)
    lam = lambda_for(group.d_enc)
    opt = Adam(model.params(), lr=cfg.lr)
    control = TrainControl.from_config(cfg)
    best_state = snapshot_state(model.state_arrays())
    history: dict = {"train_loss": [], "val_loss": [], "lambda": lam}

    for epoch in range(cfg.max_epochs):
        order = rng_for(seed, f"ae-shuffle-{group.name}-{epoch}").permutation(len(train_idx))
        drop_rng = rng_for(seed, f"ae-dropout-{group.name}-{epoch}")
        epoch_loss = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            xb = Xtr[order[lo : lo + cfg.batch_size]]
            opt.zero_grad()
            x_hat, z = model.forward(xb, train=True, rng=drop_rng)
            terms, d_xhat, d_z = ae_loss(xb, x_hat, z, lam)
            model.backward(d_xhat, d_z)
            clip_grad_norm(opt.params, cfg.clip_norm)
            opt.step()
            epoch_loss += terms.total * xb.shape[0]
        history["train_loss"].append(epoch_loss / len(train_idx))

        xv_hat, zv = model.forward(Xva, train=False)
        val_terms, _, _ = ae_loss(Xva, xv_hat, zv, lam)
        history["val_loss"].append(val_terms.total)
        opt.lr = control.update(val_terms.total)
        if control.improved:
            snapshot_state(model.state_arrays(), into=best_state)
        if control.should_stop:
            break

    model.load_state(best_state)
    xv_hat, _ = model.forward(Xva, train=False)
    history["val_relmse"] = rel_mse(Xva, xv_hat)
    history["best_epoch"] = control.best_epoch
    history["epochs_run"] = control.epoch + 1
    return model, scaler, history


def ref_save_group_checkpoint(path, group, model, scaler, seed) -> None:
    """A group checkpoint as the ensemble's save wrote it from a trained
    model and its scaler, before training wrote it."""
    import numpy as np

    from popgate.nn.checkpoint import save_checkpoint
    from popgate.seeding import derive_seed

    arrays = model.state_arrays()
    arrays["scaler.center"] = scaler.center
    arrays["scaler.scale"] = scaler.scale
    arrays["scaler.degenerate"] = scaler.degenerate.astype(np.uint8)
    meta = {
        "group": group,
        "seed": derive_seed(seed, f"ae-init-{group.name}"),
        "encoder_specs": [layer.spec for layer in model.encoder.layers],
        "decoder_specs": [layer.spec for layer in model.decoder.layers],
    }
    save_checkpoint(path, arrays, meta)
