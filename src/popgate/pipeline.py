"""Subcommand implementations behind the CLI.

Every subcommand reads only the files its config section names, writes its
outputs under the workspace, and records a manifest (config hash, seed,
input/output hashes). All paths in the config are resolved relative to the
workspace root. Nothing here depends on wall time, so identical config +
inputs reproduce identical artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .autoenc import (
    AETrainConfig,
    CompressorEnsemble,
    default_registry,
    registry_from_json,
    train_group_autoencoder,
)
from .ctd import DEFAULT_WINDOW, build_ctd_dataset, ingest_events
from .data import (
    DEFAULT_LANGUAGES,
    CleaningConfig,
    ScalerParams,
    SynthSpec,
    TrackRecord,
    clean,
    normalize_lyrics,
    scaler_apply,
    scaler_fit,
    scaler_invert,
    stratified_split,
    synth_generate,
)
from .exceptions import ConfigError, MissingInputError, PopgateError, ShapeError
from .fusion import (
    MODALITIES,
    BranchConfig,
    GateConfig,
    GatedEnsemble,
    LossWeights,
    Phase1Config,
    Phase2Config,
    default_branch_config,
    gate_report,
    load_ensemble,
    phase1_train,
    phase2_train,
    save_ensemble,
)
from .manifest import write_manifest
from .metrics import compute_metrics
from .nn.layers import activation_from_json
from .seeding import derive_seed, rng_for
from .tabular import align_rows, read_columns, read_matrix_csv, write_csv, write_matrix_csv

SUBCOMMANDS = (
    "synth",
    "clean",
    "split",
    "ctd-extract",
    "ae-train",
    "compress",
    "train-phase1",
    "train-phase2",
    "predict",
    "evaluate",
    "gate-report",
)

DEFAULT_SEED = 46  # experiment seed; the split step defaults to 42 separately
DEFAULT_SPLIT_SEED = 42


@dataclass(frozen=True)
class RunContext:
    workspace: Path
    config: dict
    seed: int


def _section(config: dict, name: str) -> dict:
    sec = config.get(name)
    if sec is None:
        raise ConfigError(f"config lacks a {name!r} section")
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be an object, got {type(sec).__name__}")
    return sec


def _path(ctx: RunContext, rel: str) -> Path:
    p = Path(rel)
    return p if p.is_absolute() else ctx.workspace / p


def _need(sec: dict, key: str, where: str) -> str:
    if key not in sec:
        raise ConfigError(f"config section {where!r} needs key {key!r}")
    return sec[key]


def _knobs(cls, sec: dict, key: str, where: str, **injected):
    """Build the config dataclass `cls` from `sec[key]`, a section named
    `where` in messages; `injected` fields come from the step, not the config."""
    given = sec.get(key, {})
    if not isinstance(given, dict):
        raise ConfigError(f"config section {where!r} must be an object, got {type(given).__name__}")
    known = {f.name for f in fields(cls)} - set(injected)
    for k in given:
        if k in injected:
            raise ConfigError(f"{where}.{k} is not a config key: the step uses the run's {k}")
        if k not in known:
            raise ConfigError(f"{where}: unknown key {k!r}; expected one of {sorted(known)}")
    try:
        return cls(**injected, **given)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where} {json.dumps(given, sort_keys=True)}: {e}") from None


# ---------------------------------------------------------------------------
# synth


def cmd_synth(ctx: RunContext) -> str:
    sec = _section(ctx.config, "synth")
    spec = SynthSpec(
        n_samples=int(sec.get("n_samples", 1000)),
        dims=tuple(sec.get("dims", (64, 128, 16))),
        latent_dim=int(sec.get("latent_dim", 8)),
        coeffs=tuple(sec.get("coeffs", (1.0, 1.0, 1.0))),
        noise=float(sec.get("noise", 0.1)),
        feature_noise=float(sec.get("feature_noise", 0.05)),
        n_artists=int(sec.get("n_artists", 50)),
        n_users=int(sec.get("n_users", 400)),
    )
    data = synth_generate(spec, ctx.seed)
    out_dir = _path(ctx, sec.get("out_dir", "data"))

    paths = {
        "metadata": out_dir / "metadata.csv",
        "lyrics": out_dir / "lyrics.csv",
        "events": out_dir / "events.csv",
        "audio": out_dir / "audio.csv",
        "lyrics_features": out_dir / "lyrics_features.csv",
        "social": out_dir / "social.csv",
    }
    n = spec.n_samples
    write_csv(
        paths["metadata"],
        ["track_id", "artist_id", "year", "language", "popularity"],
        (
            (data.track_ids[i], data.artist_ids[i], int(data.release_years[i]),
             data.languages[i], int(data.popularity[i]))
            for i in range(n)
        ),
    )
    write_csv(paths["lyrics"], ["track_id", "lyrics"],
              ((data.track_ids[i], data.lyrics[i]) for i in range(n)))
    write_csv(paths["events"], ["user_id", "track_id", "timestamp"], data.events)
    short = {"audio": "a", "lyrics": "l", "social" : "s"}
    for m, key in (("audio", "audio"), ("lyrics", "lyrics_features"), ("social", "social")):
        X = data.features[m]
        names = [f"{short[m]}{j}" for j in range(X.shape[1])]
        write_matrix_csv(paths[key], data.track_ids, names, X)

    write_manifest(ctx.workspace, "synth", ctx.config, ctx.seed, {}, paths)
    return f"synth: {n} tracks, {len(data.events)} events -> {out_dir}"


# ---------------------------------------------------------------------------
# clean


def cmd_clean(ctx: RunContext) -> str:
    sec = _section(ctx.config, "clean")
    meta_in = _path(ctx, _need(sec, "metadata", "clean"))
    lyrics_in = _path(ctx, _need(sec, "lyrics", "clean"))
    meta_out = _path(ctx, sec.get("metadata_out", "data/metadata_clean.csv"))
    lyrics_out = _path(ctx, sec.get("lyrics_out", "data/lyrics_clean.csv"))

    cols = read_columns(meta_in, ["track_id", "artist_id", "year", "language", "popularity"])
    lyr = read_columns(lyrics_in, ["track_id", "lyrics"])
    lyrics_map = dict(zip(lyr["track_id"], lyr["lyrics"]))
    records = [
        TrackRecord(
            track_id=tid,
            artist_id=cols["artist_id"][i],
            release_year=int(cols["year"][i]),
            language=cols["language"][i],
            lyrics=lyrics_map.get(tid, ""),
            popularity=int(cols["popularity"][i]),
        )
        for i, tid in enumerate(cols["track_id"])
    ]
    bounds = sec.get("lyric_bounds")
    ccfg = CleaningConfig(
        min_year=int(sec.get("min_year", 1960)),
        languages=tuple(sec.get("languages", DEFAULT_LANGUAGES)),
        lyric_bounds=tuple(bounds) if bounds else None,
    )
    kept, tally = clean(records, ccfg)
    write_csv(
        meta_out,
        ["track_id", "artist_id", "year", "language", "popularity"],
        ((r.track_id, r.artist_id, r.release_year, r.language, r.popularity) for r in kept),
    )
    write_csv(
        lyrics_out,
        ["track_id", "lyrics"],
        ((r.track_id, normalize_lyrics(r.lyrics)) for r in kept),
    )
    write_manifest(
        ctx.workspace, "clean", ctx.config, ctx.seed,
        {"metadata": meta_in, "lyrics": lyrics_in},
        {"metadata": meta_out, "lyrics": lyrics_out},
    )
    dropped = ", ".join(f"{k}={v}" for k, v in sorted(tally.items()) if k != "kept")
    return f"clean: kept {tally['kept']} of {len(records)} tracks ({dropped})"


# ---------------------------------------------------------------------------
# split


def cmd_split(ctx: RunContext) -> str:
    sec = _section(ctx.config, "split")
    meta = _path(ctx, _need(sec, "metadata", "split"))
    out = _path(ctx, sec.get("out", "data/split.csv"))
    seed = int(sec.get("seed", ctx.config.get("split_seed", DEFAULT_SPLIT_SEED)))
    cols = read_columns(meta, ["track_id", "popularity"])
    pop = np.array([float(p) for p in cols["popularity"]])
    asg = stratified_split(
        pop,
        bins=int(sec.get("bins", 5)),
        test_fraction=float(sec.get("test_fraction", 0.2)),
        seed=seed,
    )
    labels = asg.labels
    write_csv(
        out,
        ["track_id", "bin", "split"],
        (
            (tid, int(asg.bin_ids[i]), labels[i])
            for i, tid in enumerate(cols["track_id"])
        ),
    )
    n_test = int(asg.test_mask.sum())
    write_manifest(ctx.workspace, "split", ctx.config, seed, {"metadata": meta}, {"split": out})
    return f"split: {pop.size - n_test} train / {n_test} test across {int(sec.get('bins', 5))} bins"


# ---------------------------------------------------------------------------
# ctd-extract


def cmd_ctd_extract(ctx: RunContext) -> str:
    sec = _section(ctx.config, "ctd")
    events = _path(ctx, _need(sec, "events", "ctd"))
    meta = _path(ctx, _need(sec, "metadata", "ctd"))
    out = _path(ctx, sec.get("out", "data/ctd.csv"))
    mode = sec.get("mode", "temporal")
    window = tuple(int(y) for y in sec.get("window", DEFAULT_WINDOW))

    cols = read_columns(meta, ["track_id", "artist_id"])
    track_artist = dict(zip(cols["track_id"], cols["artist_id"]))
    ingest = ingest_events(events, window)
    ids, matrix, schema = build_ctd_dataset(ingest, track_artist, mode, window)

    # tracks with no usable events get all-zero features, keeping one row
    # per catalog track so downstream joins never lose rows; `ids` is sorted
    all_ids = cols["track_id"]
    full = np.zeros((len(all_ids), len(schema)))
    if ids:
        sorted_ids = np.array(ids, dtype=object)
        catalog = np.array(all_ids, dtype=object)
        pos = np.minimum(np.searchsorted(sorted_ids, catalog), len(ids) - 1)
        found = sorted_ids[pos] == catalog
        full[found] = matrix[pos[found]]
    write_matrix_csv(out, all_ids, schema.names, full)
    write_manifest(
        ctx.workspace, "ctd-extract", ctx.config, ctx.seed,
        {"events": events, "metadata": meta}, {"ctd": out},
    )
    return (
        f"ctd-extract: {len(ids)} tracks with events, {len(all_ids) - len(ids)} zero-filled, "
        f"{ingest.n_malformed} malformed and {ingest.n_out_of_window} out-of-window rows dropped"
    )


# ---------------------------------------------------------------------------
# autoencoder training / compression


def _train_ids(split_path: Path) -> set[str]:
    cols = read_columns(split_path, ["track_id", "split"])
    return {tid for tid, s in zip(cols["track_id"], cols["split"]) if s == "train"}


def cmd_ae_train(ctx: RunContext) -> str:
    sec = _section(ctx.config, "ae")
    features = _path(ctx, _need(sec, "features", "ae"))
    split_path = _path(ctx, _need(sec, "split", "ae"))
    model_dir = _path(ctx, sec.get("model_dir", "models/ae"))
    cfg = _knobs(AETrainConfig, sec, "train", "ae.train", seed=ctx.seed)

    ids, _, X = read_matrix_csv(features)
    registry = (
        registry_from_json(sec["registry"]) if "registry" in sec else default_registry()
    )
    widest = max(g.start + g.d for g in registry)
    if X.shape[1] < widest:
        raise ShapeError(
            f"feature file has {X.shape[1]} columns but the registry spans {widest}"
        )
    train_ids = _train_ids(split_path)
    mask = np.array([tid in train_ids for tid in ids])
    if not mask.any():
        raise PopgateError(f"no training rows: {features} shares no train ids with {split_path}")
    X_train = X[mask]

    models, scalers, histories = {}, {}, {}
    for g in registry:
        model, scaler, hist = train_group_autoencoder(g, X_train[:, g.cols], cfg)
        models[g.name] = model
        scalers[g.name] = scaler
        histories[g.name] = hist
    ens = CompressorEnsemble(registry, models, scalers, seed=ctx.seed)
    ens.save(model_dir, histories)
    hist_path = model_dir / "history.json"
    hist_path.write_text(json.dumps(histories, indent=2, sort_keys=True) + "\n")

    outputs = {"ensemble": model_dir / "ensemble.json", "history": hist_path}
    for g in registry:
        outputs[f"group_{g.name}"] = model_dir / f"{g.name}.npz"
    write_manifest(
        ctx.workspace, "ae-train", ctx.config, ctx.seed,
        {"features": features, "split": split_path}, outputs,
    )
    worst = max(histories.values(), key=lambda h: h["val_relmse"])["val_relmse"]
    return (
        f"ae-train: {len(registry)} group(s) on {int(mask.sum())} train rows, "
        f"worst val relmse {worst:.4f} -> {model_dir}"
    )


def cmd_compress(ctx: RunContext) -> str:
    sec = _section(ctx.config, "compress")
    features = _path(ctx, _need(sec, "features", "compress"))
    model_dir = _path(ctx, sec.get("model_dir", "models/ae"))
    out = _path(ctx, sec.get("out", "data/audio_compressed.csv"))

    ens = CompressorEnsemble.load(model_dir)
    ids, _, X = read_matrix_csv(features)
    Z = ens.compress(X)
    names = [f"{g.name}_z{j}" for g in ens.registry for j in range(g.d_enc)]
    write_matrix_csv(out, ids, names, Z)
    write_manifest(
        ctx.workspace, "compress", ctx.config, ctx.seed,
        {"features": features, "ensemble": model_dir / "ensemble.json"},
        {"compressed": out},
    )
    return f"compress: {X.shape[1]} -> {Z.shape[1]} dims for {len(ids)} tracks -> {out}"


# ---------------------------------------------------------------------------
# fused model training


def _train_section(ctx: RunContext) -> dict:
    return _section(ctx.config, "train")


def _modality_inputs(sec: dict) -> dict[str, list[str]]:
    inputs = _need(sec, "inputs", "train")
    missing = [m for m in MODALITIES if m not in inputs]
    if missing:
        raise ConfigError(f"train.inputs lacks modalities {missing}")
    return {m: [inputs[m]] if isinstance(inputs[m], str) else list(inputs[m]) for m in MODALITIES}


def _load_table(ctx: RunContext, sec: dict):
    """The metadata path, its track ids and popularity, and the unscaled
    per-modality matrices aligned to the metadata row order."""
    meta = _path(ctx, _need(sec, "metadata", "train"))
    cols = read_columns(meta, ["track_id", "popularity"])
    ids = cols["track_id"]
    pop = np.array([float(p) for p in cols["popularity"]])
    xs = {}
    for m, paths in _modality_inputs(sec).items():
        parts = []
        for p in paths:
            t_ids, _, X = read_matrix_csv(_path(ctx, p))
            parts.append(align_rows(ids, t_ids, X, p))
        xs[m] = np.hstack(parts)
    return meta, ids, pop, xs


def _saved_scalers(extra: dict) -> tuple[ScalerParams, dict[str, ScalerParams]]:
    """The target and feature scalers that phase 1 saved with the model."""
    target = ScalerParams.from_json(extra["target_scaler"])
    features = {m: ScalerParams.from_json(extra["feature_scalers"][m]) for m in MODALITIES}
    return target, features


def _scale(scalers: dict[str, ScalerParams], xs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {m: scaler_apply(scalers[m], xs[m]) for m in MODALITIES}


def _branch_config(sec: dict, m: str, in_dim: int) -> BranchConfig:
    base = default_branch_config(m, in_dim)
    over = sec.get("branches", {}).get(m)
    if not over:
        return base
    hidden = tuple(over.get("hidden", base.hidden))
    if "dropout" in over:
        dropout = tuple(over["dropout"])
    elif "hidden" in over:
        dropout = tuple(0.1 for _ in hidden)  # sane default for custom stacks
    else:
        dropout = base.dropout
    try:
        activation = (
            activation_from_json(over["activation"]) if "activation" in over else base.activation
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"train.branches.{m}.activation {over['activation']!r}: {e!r}") from None
    return BranchConfig(m, in_dim, hidden, activation, dropout, over.get("batchnorm", True))


def _phase_splits(ctx: RunContext, sec: dict, ids: list[str], pop: np.ndarray):
    """Take the training rows from the split file, carve a stratified
    validation subset out of them, and return (train, fit, val) rows."""
    split_path = _path(ctx, _need(sec, "split", "train"))
    scols = read_columns(split_path, ["track_id", "split"])
    split_of = dict(zip(scols["track_id"], scols["split"]))
    missing = [t for t in ids if t not in split_of]
    if missing:
        raise MissingInputError(
            f"{split_path}: no split assignment for {len(missing)} tracks "
            f"(first few: {missing[:3]})"
        )
    labels = np.array([split_of[t] for t in ids])
    train_rows = np.flatnonzero(labels == "train")
    if train_rows.size < 10:
        raise PopgateError(f"too few training rows ({train_rows.size}) to fit the model")
    val_fraction = float(sec.get("val_fraction", 0.1))
    asg = stratified_split(
        pop[train_rows],
        bins=int(sec.get("val_bins", 5)),
        test_fraction=val_fraction,
        seed=derive_seed(ctx.seed, "phase-val"),
    )
    fit_rows = train_rows[~asg.test_mask]
    val_rows = train_rows[asg.test_mask]
    return train_rows, fit_rows, val_rows


def _save_phase(
    ctx: RunContext, phase: int, sec: dict, model_dir: Path,
    model: GatedEnsemble, extra: dict, history: dict,
) -> None:
    """Save the model and the phase's history, then write its manifest."""
    save_ensemble(model, model_dir, extra=extra)
    hist_path = model_dir / f"phase{phase}_history.json"
    hist_path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")

    inputs = {"metadata": _path(ctx, sec["metadata"]), "split": _path(ctx, sec["split"])}
    if phase == 2:
        inputs["model"] = model_dir / "model.json"
    for m, paths in _modality_inputs(sec).items():
        for i, p in enumerate(paths):
            inputs[f"{m}_{i}"] = _path(ctx, p)
    outputs = {
        "model": model_dir / "model.json",
        "gate": model_dir / "gate.npz",
        "history": hist_path,
        **{f"branch_{m}": model_dir / f"branch_{m}.npz" for m in MODALITIES},
    }
    write_manifest(ctx.workspace, f"train-phase{phase}", ctx.config, ctx.seed, inputs, outputs)


def cmd_train_phase1(ctx: RunContext) -> str:
    sec = _train_section(ctx)
    model_dir = _path(ctx, sec.get("model_dir", "models/fused"))
    gate_cfg = _knobs(GateConfig, sec, "gate", "train.gate")
    p1 = _knobs(Phase1Config, sec, "phase1", "train.phase1", seed=ctx.seed)
    _, ids, pop, xs = _load_table(ctx, sec)
    train_rows, fit_rows, val_rows = _phase_splits(ctx, sec, ids, pop)

    target_scaler = scaler_fit(pop[train_rows].reshape(-1, 1), "minmax")
    y_unit = scaler_apply(target_scaler, pop.reshape(-1, 1)).reshape(-1)
    feature_scalers = {m: scaler_fit(xs[m][train_rows], "zscore") for m in MODALITIES}
    xs_scaled = _scale(feature_scalers, xs)

    branch_cfgs = {m: _branch_config(sec, m, xs_scaled[m].shape[1]) for m in MODALITIES}
    model = GatedEnsemble.build(branch_cfgs, gate_cfg, rng_for(ctx.seed, "model-init"))

    histories = {}
    for m in MODALITIES:
        histories[m] = phase1_train(
            model.branches[m],
            xs_scaled[m][fit_rows], y_unit[fit_rows],
            xs_scaled[m][val_rows], y_unit[val_rows],
            p1,
        )
    extra = {
        "phase": 1,
        "seed": ctx.seed,
        "target_scaler": target_scaler.to_json(),
        "feature_scalers": {m: feature_scalers[m].to_json() for m in MODALITIES},
    }
    _save_phase(ctx, 1, sec, model_dir, model, extra, histories)
    best = {m: f"{histories[m]['best_val_mse']:.5f}" for m in MODALITIES}
    return f"train-phase1: val mse {best} -> {model_dir}"


def cmd_train_phase2(ctx: RunContext) -> str:
    sec = _train_section(ctx)
    model_dir = _path(ctx, sec.get("model_dir", "models/fused"))
    weights = _knobs(LossWeights, sec, "loss_weights", "train.loss_weights")
    p2 = _knobs(Phase2Config, sec, "phase2", "train.phase2", seed=ctx.seed)
    model, extra = load_ensemble(model_dir)
    _, ids, pop, xs = _load_table(ctx, sec)
    train_rows, fit_rows, val_rows = _phase_splits(ctx, sec, ids, pop)

    # reuse the phase-1 scalers verbatim; refitting could drift
    target_scaler, feature_scalers = _saved_scalers(extra)
    y_unit = scaler_apply(target_scaler, pop.reshape(-1, 1)).reshape(-1)
    xs_scaled = _scale(feature_scalers, xs)

    hist = phase2_train(
        model,
        {m: xs_scaled[m][fit_rows] for m in MODALITIES}, y_unit[fit_rows],
        {m: xs_scaled[m][val_rows] for m in MODALITIES}, y_unit[val_rows],
        weights, p2,
    )
    extra = {**extra, "phase": 2, "loss_weights": weights.to_json()}
    _save_phase(ctx, 2, sec, model_dir, model, extra, hist)
    return (
        f"train-phase2: val mse {hist['initial_val_mse']:.5f} -> {hist['best_val_mse']:.5f} "
        f"in {hist['epochs_run']} epochs"
    )


# ---------------------------------------------------------------------------
# prediction / evaluation / gate report


PREDICTION_COLUMNS = (
    "track_id",
    "pred_popularity",
    "alpha_audio",
    "alpha_lyrics",
    "alpha_social",
    "pred_audio",
    "pred_lyrics",
    "pred_social",
)


def _predictions_path(ctx: RunContext) -> Path:
    sec = _section(ctx.config, "predict") if "predict" in ctx.config else {}
    return _path(ctx, sec.get("out", "out/predictions.csv"))


def cmd_predict(ctx: RunContext) -> str:
    sec = _section(ctx.config, "predict")
    train = _train_section(ctx)
    model_dir = _path(ctx, sec.get("model_dir", train.get("model_dir", "models/fused")))
    out = _predictions_path(ctx)
    model, extra = load_ensemble(model_dir)
    if extra.get("phase", 0) < 2:
        raise PopgateError(f"model at {model_dir} has not completed phase-2 training")
    meta, ids, _, xs = _load_table(ctx, train)
    target_scaler, feature_scalers = _saved_scalers(extra)

    result = model.predict(_scale(feature_scalers, xs))
    pred = scaler_invert(target_scaler, result.yhat.reshape(-1, 1)).reshape(-1)
    branch_pred = np.hstack(
        [
            scaler_invert(target_scaler, result.branch_yhat[:, i].reshape(-1, 1))
            for i in range(len(MODALITIES))
        ]
    )
    rows = (
        (
            ids[i], pred[i],
            result.alpha[i, 0], result.alpha[i, 1], result.alpha[i, 2],
            branch_pred[i, 0], branch_pred[i, 1], branch_pred[i, 2],
        )
        for i in range(len(ids))
    )
    write_csv(out, PREDICTION_COLUMNS, rows)
    write_manifest(
        ctx.workspace, "predict", ctx.config, ctx.seed,
        {"model": model_dir / "model.json", "metadata": meta},
        {"predictions": out},
    )
    return f"predict: {len(ids)} rows -> {out}"


def _metadata_of(meta: Path, track_ids: list[str], names: list[str]) -> dict[str, list[str]]:
    """The `names` columns of `meta`, one entry per track in `track_ids`."""
    cols = read_columns(meta, ["track_id", *names])
    row_of = {t: i for i, t in enumerate(cols["track_id"])}
    rows = []
    for tid in track_ids:
        if tid not in row_of:
            raise MissingInputError(f"{meta}: no metadata row for predicted track {tid!r}")
        rows.append(row_of[tid])
    return {n: [cols[n][r] for r in rows] for n in names}


def _alpha(pcols: dict[str, list[str]], rows) -> np.ndarray:
    return np.array([[float(pcols[f"alpha_{m}"][i]) for m in MODALITIES] for i in rows])


def _decade(year: str) -> str:
    return f"{(int(year) // 10) * 10}s"


def _residual_summary(residuals: np.ndarray) -> dict:
    mean = float(residuals.mean())
    std = float(residuals.std())
    if std == 0.0:
        skew = 0.0
    else:
        skew = float(np.mean((residuals - mean) ** 3) / std**3)
    return {"mean": mean, "stdev": std, "skew": skew}


def _distribution(v: np.ndarray) -> dict:
    qs = np.quantile(v, [0.0, 0.25, 0.5, 0.75, 1.0])
    return {"min": qs[0], "q25": qs[1], "median": qs[2], "q75": qs[3], "max": qs[4]}


def cmd_evaluate(ctx: RunContext) -> str:
    sec = _section(ctx.config, "evaluate")
    pred_path = _path(ctx, _need(sec, "predictions", "evaluate"))
    meta = _path(ctx, _need(sec, "metadata", "evaluate"))
    split_path = _path(ctx, _need(sec, "split", "evaluate"))
    out = _path(ctx, sec.get("out", "out/metrics.json"))
    subset = sec.get("subset", "test")

    pcols = read_columns(pred_path, list(PREDICTION_COLUMNS))
    mcols = _metadata_of(meta, pcols["track_id"], ["year", "popularity"])
    scols = read_columns(split_path, ["track_id", "split"])
    split_of = dict(zip(scols["track_id"], scols["split"]))

    keep = [
        i for i, tid in enumerate(pcols["track_id"])
        if subset == "all" or split_of.get(tid) == subset
    ]
    if len(keep) < 2:
        raise PopgateError(f"evaluate: fewer than 2 rows in subset {subset!r}")
    y = np.array([float(mcols["popularity"][i]) for i in keep])
    y_hat = np.array([float(pcols["pred_popularity"][i]) for i in keep])

    report = compute_metrics(y, y_hat)
    scaled = compute_metrics(y / 100.0, y_hat / 100.0)
    residuals = y_hat - y
    gates = gate_report(_alpha(pcols, keep), [_decade(mcols["year"][i]) for i in keep])

    body = {
        "subset": subset,
        "n": len(keep),
        "metrics": report.to_json(),
        "metrics_scaled": scaled.to_json(),
        "residuals": _residual_summary(residuals),
        "distribution": {"actual": _distribution(y), "predicted": _distribution(y_hat)},
        "gate_means_by_decade": gates.groups,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    write_manifest(
        ctx.workspace, "evaluate", ctx.config, ctx.seed,
        {"predictions": pred_path, "metadata": meta, "split": split_path},
        {"report": out},
    )
    return (
        f"evaluate[{subset}]: n={len(keep)} r2={report.r2:.4f} mae={report.mae:.3f} "
        f"relmse={report.relmse:.4f} -> {out}"
    )


def cmd_gate_report(ctx: RunContext) -> str:
    """Summarize the mixture weights that `predict` wrote; needs no model."""
    sec = _section(ctx.config, "gate_report")
    group_by = sec.get("group_by", "decade")
    if group_by not in ("decade", "none"):
        raise ConfigError(f"gate_report.group_by must be 'decade' or 'none', got {group_by!r}")
    out = _path(ctx, sec.get("out", "out/gate_report.json"))
    pred_path = _predictions_path(ctx)
    meta = _path(ctx, _need(_train_section(ctx), "metadata", "train"))

    pcols = read_columns(pred_path, ["track_id", *(f"alpha_{m}" for m in MODALITIES)])
    years = _metadata_of(meta, pcols["track_id"], ["year"])["year"]
    labels = [_decade(y) for y in years] if group_by == "decade" else None
    report = gate_report(_alpha(pcols, range(len(years))), group_labels=labels)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    write_manifest(
        ctx.workspace, "gate-report", ctx.config, ctx.seed,
        {"predictions": pred_path, "metadata": meta},
        {"report": out},
    )
    means = ", ".join(f"{m}={report.means[m]:.3f}" for m in MODALITIES)
    return f"gate-report: {means} -> {out}"


# ---------------------------------------------------------------------------


_HANDLERS = {
    "synth": cmd_synth,
    "clean": cmd_clean,
    "split": cmd_split,
    "ctd-extract": cmd_ctd_extract,
    "ae-train": cmd_ae_train,
    "compress": cmd_compress,
    "train-phase1": cmd_train_phase1,
    "train-phase2": cmd_train_phase2,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "gate-report": cmd_gate_report,
}


def run_command(command: str, config: dict, workspace: str | Path, seed: int) -> str:
    if command not in _HANDLERS:
        raise ConfigError(f"unknown subcommand {command!r}; expected one of {SUBCOMMANDS}")
    workspace = Path(workspace)
    if not workspace.exists():
        raise MissingInputError(f"workspace directory does not exist: {workspace}")
    ctx = RunContext(workspace=workspace, config=config, seed=int(seed))
    return _HANDLERS[command](ctx)
