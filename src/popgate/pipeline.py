"""Subcommand implementations behind the CLI.

Each subcommand is one entry of `STEPS`: the config sections it reads, the
files its manifest records and a body. `SECTIONS` declares every key a
section takes, with its default and its check. `run_command` rejects unknown
or invalid keys before any file is read, resolves paths against the
workspace root, runs the body and writes the step's manifest (config hash,
seed, input/output hashes). Nothing here depends on wall time, so identical
config + inputs reproduce identical artifacts. Config values are read with
`popgate.codec`, the same reader that decodes the JSON of model artifacts,
into the classes of `popgate.config`, which loads no step package. Every
step is a fresh process, so the modules of the packages that only some steps
use (`data`, `ctd`, `autoenc`, `fusion` and with them `nn`) are imported at
their first use, not when this module loads; the packages import none of
their modules, so a step loads only the modules it uses.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, replace
from functools import partial
from importlib import import_module
from inspect import isfunction
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, get_type_hints

import numpy as np

from .codec import check_object, dataclass_from_json, from_json, reading, write_json
from .config import (DEFAULT_WINDOW, MODALITIES, AETrainConfig, BranchConfig, CleaningConfig,
                     FeatureGroup, GateConfig, LossWeights, Phase1Config, Phase2Config, SynthSpec,
                     default_branch_config, default_registry, validate_registry)
from .exceptions import ConfigError, MissingInputError, PopgateError, ShapeError
from .lanes import run_lanes
from .manifest import hash_files, write_manifest
from .metrics import compute_metrics, gate_report
from .seeding import derive_seed, rng_for
from .tabular import align_rows, read_columns, read_matrix_csv, write_csv, write_matrix_csv

if TYPE_CHECKING:
    from .data.scaling import ScalerParams
    from .fusion.model import GatedEnsemble


def _on_first_call(ref: str) -> Callable:
    """A stand-in for the function `name` of the popgate module `module`,
    given as `module:name`, that imports it when first called and then calls
    it; steps that never call it never load its packages. The stand-in
    stays bound here for good, so a wrapper installed over it from outside
    sees every call."""
    module, _, name = ref.partition(":")
    fn = None

    def call(*args, **kwargs):
        nonlocal fn
        if fn is None:
            fn = getattr(import_module(f".{module}", __package__), name)
        return fn(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


# the functions of the other packages that step bodies call, bound by name
synth_generate = _on_first_call("data.synth:synth_generate")
clean = _on_first_call("data.cleaning:clean")
normalize_lyrics = _on_first_call("data.cleaning:normalize_lyrics")
stratified_split = _on_first_call("data.split:stratified_split")
scaler_fit = _on_first_call("data.scaling:scaler_fit")
scaler_apply = _on_first_call("data.scaling:scaler_apply")
scaler_invert = _on_first_call("data.scaling:scaler_invert")
ingest_events = _on_first_call("ctd.events:ingest_events")
build_ctd_dataset = _on_first_call("ctd.features:build_ctd_dataset")
train_group_autoencoder = _on_first_call("autoenc.train:train_group_autoencoder")
phase1_train = _on_first_call("fusion.train:phase1_train")
phase2_train = _on_first_call("fusion.train:phase2_train")
save_ensemble = _on_first_call("fusion.model:save_ensemble")
load_ensemble = _on_first_call("fusion.model:load_ensemble")

DEFAULT_SEED = 46  # experiment seed; `split.seed` defaults to 42 separately


@dataclass
class RunContext:
    """One run of one step: its config, the checked values of the keys read
    so far, and the files its manifest records (bodies add the ones known
    only at run time). Inputs are hashed as they are recorded, before the
    step reads them or writes over them."""

    workspace: Path
    config: dict
    seed: int
    inputs: dict[str, Path] = field(default_factory=dict)
    input_hashes: dict[str, dict] = field(default_factory=dict)
    outputs: dict[str, Path] = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    def add_input(self, name: str, path: Path) -> Path:
        """Record and hash the manifest input `name`."""
        self.inputs[name] = path
        self.input_hashes.update(hash_files(self.workspace, {name: path}))
        return path

    def arg(self, key: str):
        """The checked value of a dotted config key, such as "split.bins"."""
        if key not in self.values:
            name, _, leaf = key.partition(".")
            raw = self.config.get(name, {}).get(leaf, MISSING)
            self.values[key] = _resolve(self, key, raw, *SECTIONS[name][leaf])
        return self.values[key]

    def knobs(self, name: str):
        """The dataclass that the keys of section `name` outside SECTIONS build."""
        return dataclass_from_json(FLAT_KNOBS[name], self.config.get(name, {}), name,
                                   extra=SECTIONS[name])

    def file(self, ref: str) -> Path:
        """A manifest file: a path key, or `key/name` inside a directory key."""
        key, _, name = ref.partition("/")
        return self.arg(key) / name


# ---------------------------------------------------------------------------
# checking config values


def _resolve(ctx: RunContext, where: str, raw, tp, default=MISSING, need="", ok=None):
    """The value of one key from its spec in SECTIONS."""
    if raw is MISSING:
        if default is MISSING:
            raise ConfigError(f"config needs key {where!r}")
        if callable(default):
            return default(ctx)
        raw = default
    value = tp(ctx, raw, where) if isfunction(tp) else from_json(tp, raw, where)
    if ok is not None and not ok(value):
        raise ConfigError(f"{where} must be {need}, got {raw!r}")
    return ctx.workspace / value if tp is Path else value


def _one_of(*choices):
    return " or ".join(map(repr, choices)), lambda v: v in choices


_AT_LEAST_1 = ("at least 1", lambda n: n >= 1)
_FRACTION = ("in (0, 1)", lambda x: 0.0 < x < 1.0)


# ---------------------------------------------------------------------------
# synth


_SYNTH_FILES = ("metadata", "lyrics", "events", "audio", "lyrics_features", "social")
# the columns of the catalog's metadata.csv, as synth writes it and clean keeps it
METADATA_COLUMNS = ("track_id", "artist_id", "year", "language", "popularity")


def _numbers(path: Path, cols: dict[str, list[str]], name: str, kind=float) -> list:
    """The cells of column `name` of `cols`, read from `path`, as `kind`; a
    cell that is not a finite number is an error naming its row."""
    values = []
    for r, cell in enumerate(cols[name]):
        try:
            values.append(kind(cell))
            if abs(values[-1]) < math.inf:  # not NaN or infinite; any int passes
                continue
            what = "a finite number"
        except ValueError:
            what = "a number"
        raise PopgateError(f"{path} row {r + 2}, column {name!r}: not {what}: {cell!r}")
    return values


def cmd_synth(ctx: RunContext) -> str:
    spec = ctx.knobs("synth")
    data = synth_generate(spec, ctx.seed)
    paths = ctx.outputs
    write_csv(
        paths["metadata"],
        METADATA_COLUMNS,
        zip(data.track_ids, data.artist_ids, data.release_years.tolist(), data.languages,
            data.popularity.tolist()),
    )
    write_csv(paths["lyrics"], ["track_id", "lyrics"], zip(data.track_ids, data.lyrics))
    write_csv(paths["events"], ["user_id", "track_id", "timestamp"], data.events)
    for m, key, prefix in (("audio", "audio", "a"), ("lyrics", "lyrics_features", "l"),
                           ("social", "social", "s")):
        X = data.features[m]
        names = [f"{prefix}{j}" for j in range(X.shape[1])]
        write_matrix_csv(paths[key], data.track_ids, names, X)
    return (f"synth: {spec.n_samples} tracks, {len(data.events)} events "
            f"-> {ctx.arg('synth.out_dir')}")


# ---------------------------------------------------------------------------
# clean


def cmd_clean(ctx: RunContext) -> str:
    from .data.cleaning import TrackRecord

    meta = ctx.inputs["metadata"]
    cols = read_columns(meta, METADATA_COLUMNS)
    years, pops = _numbers(meta, cols, "year", int), _numbers(meta, cols, "popularity", int)
    lyr = read_columns(ctx.inputs["lyrics"], ["track_id", "lyrics"])
    lyrics_map = dict(zip(lyr["track_id"], lyr["lyrics"]))
    records = [
        TrackRecord(
            track_id=tid,
            artist_id=cols["artist_id"][i],
            release_year=years[i],
            language=cols["language"][i],
            lyrics=lyrics_map.get(tid, ""),
            popularity=pops[i],
        )
        for i, tid in enumerate(cols["track_id"])
    ]
    kept, tally = clean(records, ctx.knobs("clean"))
    write_csv(
        ctx.outputs["metadata"],
        METADATA_COLUMNS,
        ((r.track_id, r.artist_id, r.release_year, r.language, r.popularity) for r in kept),
    )
    write_csv(
        ctx.outputs["lyrics"],
        ["track_id", "lyrics"],
        ((r.track_id, normalize_lyrics(r.lyrics)) for r in kept),
    )
    dropped = ", ".join(f"{k}={v}" for k, v in sorted(tally.items()) if k != "kept")
    return f"clean: kept {tally['kept']} of {len(records)} tracks ({dropped})"


# ---------------------------------------------------------------------------
# split


def cmd_split(ctx: RunContext) -> str:
    meta = ctx.inputs["metadata"]
    cols = read_columns(meta, ["track_id", "popularity"])
    pop = np.array(_numbers(meta, cols, "popularity"))
    bins = ctx.arg("split.bins")
    asg = stratified_split(
        pop, bins=bins, test_fraction=ctx.arg("split.test_fraction"), seed=ctx.arg("split.seed")
    )
    write_csv(ctx.outputs["split"], ["track_id", "bin", "split"],
              zip(cols["track_id"], asg.bin_ids.tolist(), asg.labels))
    n_test = int(asg.test_mask.sum())
    return f"split: {pop.size - n_test} train / {n_test} test across {bins} bins"


# ---------------------------------------------------------------------------
# ctd-extract


def cmd_ctd_extract(ctx: RunContext) -> str:
    window = ctx.arg("ctd.window")
    cols = read_columns(ctx.inputs["metadata"], ["track_id", "artist_id"])
    track_artist = dict(zip(cols["track_id"], cols["artist_id"]))
    ingest = ingest_events(ctx.inputs["events"], window)
    ids, matrix, schema = build_ctd_dataset(ingest, track_artist, ctx.arg("ctd.mode"), window)

    # tracks with no usable events get all-zero features, keeping one row
    # per catalog track so downstream joins never lose rows; `ids` is sorted
    all_ids = cols["track_id"]
    full = np.zeros((len(all_ids), len(schema)))
    found = np.zeros(len(all_ids), bool)
    if ids:
        sorted_ids = np.array(ids, dtype=object)
        catalog = np.array(all_ids, dtype=object)
        pos = np.minimum(np.searchsorted(sorted_ids, catalog), len(ids) - 1)
        found = sorted_ids[pos] == catalog
        full[found] = matrix[pos[found]]
    write_matrix_csv(ctx.outputs["ctd"], all_ids, schema.names, full)
    return (
        f"ctd-extract: {len(ids)} tracks with events, {int((~found).sum())} zero-filled, "
        f"{ingest.n_malformed} malformed and {ingest.n_out_of_window} out-of-window rows dropped"
    )


# ---------------------------------------------------------------------------
# autoencoder training / compression


def _valid_registry(groups: tuple[FeatureGroup, ...]) -> bool:
    try:
        validate_registry(groups)
    except ConfigError as e:
        raise ConfigError(f"ae.registry: {e}") from None
    return len(groups) > 0


def _split_of(split_path: Path) -> dict[str, str]:
    cols = read_columns(split_path, ["track_id", "split"])
    return dict(zip(cols["track_id"], cols["split"]))


def _ae_rows(group: FeatureGroup, parsed: list, rows: np.ndarray, cfg, seed: int,
             ckpt: Path) -> Callable[[], dict]:
    """Gather one group's training rows from the parsed matrix `parsed[0]`
    -> the function that trains the group on them into its checkpoint and
    returns its history. The trainer scales the rows it reads, so the
    gather is the only copy of the group's rows; it is freed with the
    trained model before the lane's next group trains."""
    data = parsed[0][rows, group.cols]
    return lambda: train_group_autoencoder(group, data, cfg, seed, ckpt)[2]


def cmd_ae_train(ctx: RunContext) -> str:
    from .autoenc.model import n_params
    from .autoenc.train import CompressorEnsemble

    features, split_path = ctx.inputs["features"], ctx.inputs["split"]
    model_dir = ctx.arg("ae.model_dir")
    ids, _, X = read_matrix_csv(features)
    registry = ctx.arg("ae.registry")
    widest = max(g.start + g.d for g in registry)
    if X.shape[1] < widest:
        raise ShapeError(
            f"feature file has {X.shape[1]} columns but the registry spans {widest}"
        )
    split_of = _split_of(split_path)
    rows = np.flatnonzero([split_of.get(tid) == "train" for tid in ids])
    if not rows.size:
        raise PopgateError(f"no training rows: {features} shares no train ids with {split_path}")
    # `parsed` holds the only reference to the matrix: each lane gathers its
    # own groups' training rows from it and then drops it, forked lanes
    # their inherited copy, before its first group trains
    parsed = [X]
    del X, ids, split_of

    cfg = ctx.arg("ae.train")
    CompressorEnsemble.discard(model_dir, registry)
    jobs = {}
    for g in registry:
        ckpt = ctx.outputs[f"group_{g.name}"] = model_dir / f"{g.name}.npz"
        jobs[g.name] = (n_params(g.d, g.d_enc),
                        partial(_ae_rows, g, parsed, rows, cfg, ctx.seed, ckpt))
    histories = run_lanes("ae-train", jobs, release=parsed.clear)
    write_json(ctx.outputs["history"], histories)
    CompressorEnsemble.save(model_dir, registry, histories, ctx.seed)
    worst = max(histories.values(), key=lambda h: h["val_relmse"])["val_relmse"]
    return (
        f"ae-train: {len(registry)} group(s) on {rows.size} train rows, "
        f"worst val relmse {worst:.4f} -> {model_dir}"
    )


def cmd_compress(ctx: RunContext) -> str:
    from .autoenc.train import CompressorEnsemble

    ens = CompressorEnsemble.load(ctx.arg("compress.model_dir"))
    for name, ckpt in ens.checkpoints.items():
        ctx.add_input(f"group_{name}", ckpt)
    ids, _, X = read_matrix_csv(ctx.inputs["features"])
    Z = ens.compress(X)
    names = [f"{g.name}_z{j}" for g in ens.registry for j in range(g.d_enc)]
    out = ctx.outputs["compressed"]
    write_matrix_csv(out, ids, names, Z)
    return f"compress: {X.shape[1]} -> {Z.shape[1]} dims for {len(ids)} tracks -> {out}"


# ---------------------------------------------------------------------------
# fused model training


def _modality_inputs(ctx: RunContext, raw, where: str) -> dict[str, list[Path]]:
    """Each modality's feature files: a path or a non-empty list of paths."""
    given = check_object(raw, where, MODALITIES)
    files = {}
    for m in MODALITIES:
        paths = given.get(m, [])
        paths = from_json(tuple[Path, ...], [paths] if isinstance(paths, str) else paths,
                          f"{where}.{m}")
        if not paths:
            raise ConfigError(f"{where}.{m} needs one or more feature files")
        files[m] = [ctx.workspace / p for p in paths]
    return files


_BRANCH_KEYS = ("hidden", "dropout", "activation", "batchnorm")


def _branches(ctx: RunContext, raw, where: str) -> dict[str, BranchConfig]:
    """Each modality's expert stack: the default one with the given fields
    replaced. The phase sets `in_dim` from the data."""
    given = check_object(raw, where, MODALITIES)
    types = get_type_hints(BranchConfig)
    stacks = {}
    for m in MODALITIES:
        at = f"{where}.{m}"
        over = {k: from_json(types[k], v, f"{at}.{k}")
                for k, v in check_object(given.get(m, {}), at, _BRANCH_KEYS).items()}
        if "hidden" in over and "dropout" not in over:
            over["dropout"] = tuple(0.1 for _ in over["hidden"])  # sane default for custom stacks
        try:
            stacks[m] = replace(default_branch_config(m, 1), **over)
        except ConfigError as e:
            raise ConfigError(f"{at}: {e}") from None
    return stacks


def _load_table(ctx: RunContext):
    """Track ids and popularity from `train.metadata`, and the unscaled
    per-modality matrices aligned to its row order. The manifest records
    each modality file as `{modality}_{i}`."""
    meta = ctx.arg("train.metadata")
    cols = read_columns(meta, ["track_id", "popularity"])
    ids = cols["track_id"]
    pop = np.array(_numbers(meta, cols, "popularity"))
    xs = {}
    for m, paths in ctx.arg("train.inputs").items():
        parts = []
        for i, p in enumerate(paths):
            t_ids, _, X = read_matrix_csv(ctx.add_input(f"{m}_{i}", p))
            parts.append(X[align_rows(ids, t_ids, str(p))])
        xs[m] = np.hstack(parts)
    return ids, pop, xs


def _saved_scalers(model_json: Path, extra: dict) -> tuple[ScalerParams, dict[str, ScalerParams]]:
    """The target and feature scalers that phase 1 saved in `model_json`."""
    from .data.scaling import ScalerParams

    with reading(model_json):
        target = from_json(ScalerParams, extra.get("target_scaler", MISSING), "extra.target_scaler")
        given = from_json(dict, extra.get("feature_scalers", MISSING), "extra.feature_scalers")
        features = {m: from_json(ScalerParams, given.get(m, MISSING), f"extra.feature_scalers.{m}")
                    for m in MODALITIES}
    return target, features


def _scale(scalers: dict[str, ScalerParams], xs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {m: scaler_apply(scalers[m], xs[m]) for m in MODALITIES}


def _phase_splits(ctx: RunContext, ids: list[str], pop: np.ndarray):
    """Take the training rows from the split file, carve a stratified
    validation subset out of them, and return (train, fit, val) rows."""
    split_path = ctx.arg("train.split")
    cols = read_columns(split_path, ["track_id", "split"])
    labels = np.array(cols["split"])[align_rows(ids, cols["track_id"], str(split_path))]
    train_rows = np.flatnonzero(labels == "train")
    if train_rows.size < 10:
        raise PopgateError(f"too few training rows ({train_rows.size}) to fit the model")
    asg = stratified_split(
        pop[train_rows],
        bins=ctx.arg("train.val_bins"),
        test_fraction=ctx.arg("train.val_fraction"),
        seed=derive_seed(ctx.seed, "phase-val"),
    )
    fit_rows = train_rows[~asg.test_mask]
    val_rows = train_rows[asg.test_mask]
    return train_rows, fit_rows, val_rows


def _save_phase(ctx: RunContext, model: GatedEnsemble, extra: dict, history: dict) -> None:
    save_ensemble(model, ctx.arg("train.model_dir"), extra=extra)
    write_json(ctx.outputs["history"], history)


def _model_files(dir_key: str) -> dict[str, str]:
    """The files of the fused model saved in the directory key `dir_key`."""
    files = {"model": "model.json", "gate": "gate.npz",
             **{f"branch_{m}": f"branch_{m}.npz" for m in MODALITIES}}
    return {name: f"{dir_key}/{f}" for name, f in files.items()}


def _phase1_expert(branch, x: np.ndarray, y: np.ndarray, fit_rows: np.ndarray,
                   val_rows: np.ndarray, cfg, seed: int) -> tuple[dict, dict]:
    """Train one expert -> a copy of its trained state in RAM, taken one
    array at a time (a forked lane sends it back pickled), and its history."""
    history = phase1_train(branch, x[fit_rows], y[fit_rows], x[val_rows], y[val_rows], cfg, seed)
    return {k: v.copy() for k, v in branch.state_arrays().items()}, history


def cmd_train_phase1(ctx: RunContext) -> str:
    from .fusion.model import GatedEnsemble

    ids, pop, xs = _load_table(ctx)
    train_rows, fit_rows, val_rows = _phase_splits(ctx, ids, pop)

    target_scaler = scaler_fit(pop[train_rows].reshape(-1, 1), "minmax")
    y_unit = scaler_apply(target_scaler, pop.reshape(-1, 1)).reshape(-1)
    feature_scalers = {m: scaler_fit(xs[m][train_rows], "zscore") for m in MODALITIES}
    xs_scaled = _scale(feature_scalers, xs)

    stacks = ctx.arg("train.branches")
    branch_cfgs = {m: replace(stacks[m], in_dim=xs_scaled[m].shape[1]) for m in MODALITIES}
    model = GatedEnsemble.build(branch_cfgs, ctx.arg("train.gate"), rng_for(ctx.seed, "model-init"))

    cfg = ctx.arg("train.phase1")
    jobs = {m: (sum(p.value.size for p in branch.params()),
                partial(_phase1_expert, branch, xs_scaled[m], y_unit, fit_rows, val_rows, cfg,
                        ctx.seed))
            for m, branch in model.branches.items()}
    histories = {}
    for m, (state, history) in run_lanes("train-phase1", jobs).items():
        # an expert trained in a forked lane comes back as its state
        model.branches[m].load_state(state)
        model.branches[m].trained = True
        histories[m] = history
    extra = {
        "phase": 1,
        "seed": ctx.seed,
        "target_scaler": target_scaler,
        "feature_scalers": feature_scalers,
    }
    _save_phase(ctx, model, extra, histories)
    best = {m: f"{histories[m]['best_val_mse']:.5f}" for m in MODALITIES}
    return f"train-phase1: val mse {best} -> {ctx.arg('train.model_dir')}"


def cmd_train_phase2(ctx: RunContext) -> str:
    weights = ctx.arg("train.loss_weights")
    model, extra = load_ensemble(ctx.arg("train.model_dir"))
    ids, pop, xs = _load_table(ctx)
    train_rows, fit_rows, val_rows = _phase_splits(ctx, ids, pop)

    # reuse the phase-1 scalers verbatim; refitting could drift
    target_scaler, feature_scalers = _saved_scalers(ctx.inputs["model"], extra)
    y_unit = scaler_apply(target_scaler, pop.reshape(-1, 1)).reshape(-1)
    xs_scaled = _scale(feature_scalers, xs)

    hist = phase2_train(
        model,
        {m: xs_scaled[m][fit_rows] for m in MODALITIES}, y_unit[fit_rows],
        {m: xs_scaled[m][val_rows] for m in MODALITIES}, y_unit[val_rows],
        weights, ctx.arg("train.phase2"), ctx.seed,
    )
    extra = {**extra, "phase": 2, "loss_weights": weights}
    _save_phase(ctx, model, extra, hist)
    return (
        f"train-phase2: val mse {hist['initial_val_mse']:.5f} -> {hist['best_val_mse']:.5f} "
        f"in {hist['epochs_run']} epochs"
    )


# ---------------------------------------------------------------------------
# prediction / evaluation / gate report


# the columns of predictions.csv after track_id: the mixture's prediction,
# the gate weights and each expert's own prediction
PREDICTION_COLUMNS = (
    "pred_popularity", *(f"alpha_{m}" for m in MODALITIES), *(f"pred_{m}" for m in MODALITIES)
)
_ALPHA = slice(1, 1 + len(MODALITIES))


def cmd_predict(ctx: RunContext) -> str:
    model_dir = ctx.arg("predict.model_dir")
    model, extra = load_ensemble(model_dir)
    if extra.get("phase", 0) < 2:
        raise PopgateError(f"model at {model_dir} has not completed phase-2 training")
    ids, _, xs = _load_table(ctx)
    target_scaler, feature_scalers = _saved_scalers(ctx.inputs["model"], extra)

    result = model.predict(_scale(feature_scalers, xs))
    pred = scaler_invert(target_scaler, result.yhat.reshape(-1, 1)).reshape(-1)
    branch_pred = scaler_invert(target_scaler, result.branch_yhat)
    out = ctx.outputs["predictions"]
    write_matrix_csv(out, ids, PREDICTION_COLUMNS,
                     np.column_stack([pred, result.alpha, branch_pred]))
    return f"predict: {len(ids)} rows -> {out}"


def _metadata_of(meta: Path, track_ids: list[str], kinds: dict[str, type]) -> dict[str, list]:
    """The numeric columns of `meta` named in `kinds`, each read as its
    kind, one entry per track in `track_ids`."""
    cols = read_columns(meta, ["track_id", *kinds])
    rows = align_rows(track_ids, cols["track_id"], str(meta))
    values = {n: _numbers(meta, cols, n, kind) for n, kind in kinds.items()}
    return {n: [v[r] for r in rows] for n, v in values.items()}


def _read_predictions(path: Path) -> tuple[list[str], np.ndarray]:
    """The track ids and the matrix of a file that `predict` wrote."""
    ids, names, P = read_matrix_csv(path)
    if tuple(names) != PREDICTION_COLUMNS:
        raise PopgateError(f"{path}: columns {names} are not {list(PREDICTION_COLUMNS)}")
    return ids, P


def _decade(year: int) -> str:
    return f"{(year // 10) * 10}s"


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
    subset = ctx.arg("evaluate.subset")
    ids, P = _read_predictions(ctx.inputs["predictions"])
    mcols = _metadata_of(ctx.inputs["metadata"], ids, {"year": int, "popularity": float})
    split_of = _split_of(ctx.inputs["split"])

    keep = [i for i, tid in enumerate(ids) if subset == "all" or split_of.get(tid) == subset]
    if len(keep) < 2:
        raise PopgateError(f"evaluate: fewer than 2 rows in subset {subset!r}")
    y = np.array([mcols["popularity"][i] for i in keep])
    y_hat = P[keep, 0]

    report = compute_metrics(y, y_hat)
    scaled = compute_metrics(y / 100.0, y_hat / 100.0)
    residuals = y_hat - y
    gates = gate_report(P[keep, _ALPHA], [_decade(mcols["year"][i]) for i in keep])

    body = {
        "subset": subset,
        "n": len(keep),
        "metrics": report,
        "metrics_scaled": scaled,
        "residuals": _residual_summary(residuals),
        "distribution": {"actual": _distribution(y), "predicted": _distribution(y_hat)},
        "gate_means_by_decade": gates.groups,
    }
    out = ctx.outputs["report"]
    write_json(out, body)
    return (
        f"evaluate[{subset}]: n={len(keep)} r2={report.r2:.4f} mae={report.mae:.3f} "
        f"relmse={report.relmse:.4f} -> {out}"
    )


def cmd_gate_report(ctx: RunContext) -> str:
    """Summarize the mixture weights that `predict` wrote; needs no model."""
    ids, P = _read_predictions(ctx.inputs["predictions"])
    years = _metadata_of(ctx.inputs["metadata"], ids, {"year": int})["year"]
    labels = [_decade(y) for y in years] if ctx.arg("gate_report.group_by") == "decade" else None
    report = gate_report(P[:, _ALPHA], group_labels=labels)
    out = ctx.outputs["report"]
    write_json(out, report)
    means = ", ".join(f"{m}={report.means[m]:.3f}" for m in MODALITIES)
    return f"gate-report: {means} -> {out}"


# ---------------------------------------------------------------------------
# the config keys and the steps


# Every key of every section: (type, default, what a valid value is, a check
# of it). Keys without a default are required; a callable default is called
# with the run's context, and its value is not checked. Paths are relative
# to the workspace.
SECTIONS = {
    "synth": {"out_dir": (Path, "data")},
    "clean": {"metadata": (Path,), "lyrics": (Path,),
              "metadata_out": (Path, "data/metadata_clean.csv"),
              "lyrics_out": (Path, "data/lyrics_clean.csv")},
    "split": {"metadata": (Path,), "out": (Path, "data/split.csv"),
              "bins": (int, 5, *_AT_LEAST_1), "test_fraction": (float, 0.2, *_FRACTION),
              "seed": (int, 42)},
    "ctd": {"events": (Path,), "metadata": (Path,), "out": (Path, "data/ctd.csv"),
            "mode": (str, "temporal", *_one_of("aggregate", "temporal")),
            "window": (tuple[int, ...], DEFAULT_WINDOW, "a non-empty list of distinct years",
                       lambda years: 0 < len(years) == len(set(years)))},
    "ae": {"features": (Path,), "split": (Path,), "model_dir": (Path, "models/ae"),
           "registry": (tuple[FeatureGroup, ...], lambda ctx: default_registry(),
                        "a non-empty list of groups", _valid_registry),
           "train": (AETrainConfig, {})},
    "compress": {"features": (Path,), "model_dir": (Path, "models/ae"),
                 "out": (Path, "data/audio_compressed.csv")},
    "train": {"metadata": (Path,), "split": (Path,), "inputs": (_modality_inputs,),
              "model_dir": (Path, "models/fused"),
              "val_fraction": (float, 0.1, *_FRACTION), "val_bins": (int, 5, *_AT_LEAST_1),
              "branches": (_branches, {}), "gate": (GateConfig, {}),
              "phase1": (Phase1Config, {}), "phase2": (Phase2Config, {}),
              "loss_weights": (LossWeights, {})},
    "predict": {"out": (Path, "out/predictions.csv"),
                "model_dir": (Path, lambda ctx: ctx.arg("train.model_dir"))},
    "evaluate": {"predictions": (Path,), "metadata": (Path,), "split": (Path,),
                 "out": (Path, "out/metrics.json"),
                 "subset": (str, "test", *_one_of("test", "train", "all"))},
    "gate_report": {"out": (Path, "out/gate_report.json"),
                    "group_by": (str, "decade", *_one_of("decade", "none"))},
}
# sections whose other keys are the fields of a dataclass
FLAT_KNOBS = {"synth": SynthSpec, "clean": CleaningConfig}
CLI_KEYS = ("seed", "workspace")  # top-level keys that popgate.cli reads


class Step(NamedTuple):
    """A subcommand: its body; the sections it reads, of which the first
    must be present; its manifest's files, named by key (`RunContext.file`);
    and the key that gives the manifest's seed, if not the run's seed."""

    body: Callable[[RunContext], str]
    sections: tuple[str, ...]
    inputs: dict[str, str] = {}
    outputs: dict[str, str] = {}
    seed: str | None = None


STEPS = {
    "synth": Step(cmd_synth, ("synth",),
                  outputs={f: f"synth.out_dir/{f}.csv" for f in _SYNTH_FILES}),
    "clean": Step(cmd_clean, ("clean",),
                  {"metadata": "clean.metadata", "lyrics": "clean.lyrics"},
                  {"metadata": "clean.metadata_out", "lyrics": "clean.lyrics_out"}),
    "split": Step(cmd_split, ("split",), {"metadata": "split.metadata"}, {"split": "split.out"},
                  seed="split.seed"),
    "ctd-extract": Step(cmd_ctd_extract, ("ctd",),
                        {"events": "ctd.events", "metadata": "ctd.metadata"}, {"ctd": "ctd.out"}),
    "ae-train": Step(cmd_ae_train, ("ae",),
                     {"features": "ae.features", "split": "ae.split"},
                     {"ensemble": "ae.model_dir/ensemble.json",
                      "history": "ae.model_dir/history.json"}),
    "compress": Step(cmd_compress, ("compress",),
                     {"features": "compress.features",
                      "ensemble": "compress.model_dir/ensemble.json"},
                     {"compressed": "compress.out"}),
    "train-phase1": Step(cmd_train_phase1, ("train",),
                         {"metadata": "train.metadata", "split": "train.split"},
                         {**_model_files("train.model_dir"),
                          "history": "train.model_dir/phase1_history.json"}),
    "train-phase2": Step(cmd_train_phase2, ("train",),
                         {"metadata": "train.metadata", "split": "train.split",
                          **_model_files("train.model_dir")},
                         {**_model_files("train.model_dir"),
                          "history": "train.model_dir/phase2_history.json"}),
    "predict": Step(cmd_predict, ("predict", "train"),
                    {**_model_files("predict.model_dir"), "metadata": "train.metadata"},
                    {"predictions": "predict.out"}),
    "evaluate": Step(cmd_evaluate, ("evaluate",),
                     {"predictions": "evaluate.predictions", "metadata": "evaluate.metadata",
                      "split": "evaluate.split"}, {"report": "evaluate.out"}),
    "gate-report": Step(cmd_gate_report, ("gate_report", "predict", "train"),
                        {"predictions": "predict.out", "metadata": "train.metadata"},
                        {"report": "gate_report.out"}),
}
SUBCOMMANDS = tuple(STEPS)


def _check(ctx: RunContext, sections: tuple[str, ...]) -> None:
    """Reject unknown top-level keys, then check every key of the step's own
    section and every key set in the other sections it reads."""
    check_object(ctx.config, "", [*CLI_KEYS, *SECTIONS])
    own = sections[0]
    if own not in ctx.config:
        raise ConfigError(f"config lacks a {own!r} section")
    for name in sections:
        given = ctx.config.get(name, {})
        if name in FLAT_KNOBS:
            ctx.knobs(name)
        else:
            check_object(given, name, SECTIONS[name])
        for key in SECTIONS[name]:
            if name == own or key in given:
                ctx.arg(f"{name}.{key}")


def run_command(command: str, config: dict, workspace: str | Path, seed: int) -> str:
    if command not in STEPS:
        raise ConfigError(f"unknown subcommand {command!r}; expected one of {SUBCOMMANDS}")
    step = STEPS[command]
    workspace = Path(workspace)
    if not workspace.exists():
        raise MissingInputError(f"workspace directory does not exist: {workspace}")
    ctx = RunContext(workspace=workspace, config=config, seed=int(seed))
    _check(ctx, step.sections)
    for name, ref in step.inputs.items():
        ctx.add_input(name, ctx.file(ref))
    ctx.outputs = {name: ctx.file(ref) for name, ref in step.outputs.items()}
    summary = step.body(ctx)
    manifest_seed = ctx.arg(step.seed) if step.seed else ctx.seed
    write_manifest(workspace, command, config, manifest_seed, ctx.input_hashes, ctx.outputs)
    return summary
