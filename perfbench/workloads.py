"""Workload inputs for the popgate benchmark, and the checks on its outputs.

The chain workloads start from the README config and override sizes only.
Every training loop gets ``patience = max_epochs + 1`` so early stopping
never fires: the amount of work per run is then fixed by the config and
does not shift with the seed or with the last digits of a numeric change.

The ``ctd-log`` workload feeds ``ctd-extract`` a play log written by the
vectorized generator below. The generator knows exactly which rows it made
malformed, out of window or in window, so the step's output can be checked
against those planted counts.
"""

from __future__ import annotations

import copy
import hashlib
import json
import re
import shutil
from pathlib import Path

import numpy as np

CHAIN = (
    "synth", "clean", "split", "ctd-extract", "ae-train", "compress",
    "train-phase1", "train-phase2", "predict", "evaluate", "gate-report",
)
PREP = ("synth", "clean", "split", "ctd-extract")
TRAIN = ("ae-train", "train-phase1", "train-phase2")
INFER = ("compress", "predict", "evaluate", "gate-report")

# The complete config printed in README.md.
README_CONFIG = {
    "seed": 46,
    "synth": {"n_samples": 240, "dims": [12, 10, 6], "latent_dim": 4,
              "coeffs": [0.7, 0.7, 0.9], "noise": 0.15, "feature_noise": 0.05,
              "n_artists": 12, "n_users": 60, "out_dir": "data"},
    "clean": {"metadata": "data/metadata.csv", "lyrics": "data/lyrics.csv"},
    "split": {"metadata": "data/metadata_clean.csv", "out": "data/split.csv"},
    "ctd": {"events": "data/events.csv", "metadata": "data/metadata_clean.csv",
            "out": "data/ctd.csv", "mode": "temporal"},
    "ae": {"features": "data/audio.csv", "split": "data/split.csv",
           "model_dir": "models/ae",
           "registry": [{"name": "aud", "start": 0, "d": 12, "d_enc": 4}],
           "train": {"max_epochs": 60, "batch_size": 64, "lr": 0.003,
                     "patience": 20, "plateau_patience": 8}},
    "compress": {"features": "data/audio.csv", "model_dir": "models/ae",
                 "out": "data/audio_z.csv"},
    "train": {"metadata": "data/metadata_clean.csv", "split": "data/split.csv",
              "inputs": {"audio": "data/audio_z.csv",
                         "lyrics": "data/lyrics_features.csv",
                         "social": ["data/social.csv", "data/ctd.csv"]},
              "model_dir": "models/fused", "val_fraction": 0.15,
              "branches": {"audio": {"hidden": [8, 4], "dropout": [0.1, 0.05]},
                           "lyrics": {"hidden": [8, 4], "dropout": [0.1, 0.05]},
                           "social": {"hidden": [8, 4], "dropout": [0.1, 0.05]}},
              "gate": {"repr_dim": 4, "hidden": [8]},
              "phase1": {"lr": 0.003, "batch_size": 64, "max_epochs": 60,
                         "patience": 15, "plateau_patience": 6},
              "phase2": {"lr": 0.001, "batch_size": 64, "max_epochs": 40,
                         "patience": 12, "plateau_patience": 5}},
    "predict": {"out": "out/predictions.csv"},
    "evaluate": {"predictions": "out/predictions.csv",
                 "metadata": "data/metadata_clean.csv",
                 "split": "data/split.csv", "out": "out/metrics.json"},
    "gate_report": {"out": "out/gate_report.json", "group_by": "decade"},
}

# Size overrides per chain workload: (dotted key, value). `None` deletes the
# key, which selects the program's defaults (full expert stacks, the seven
# default audio groups).
CHAIN_OVERRIDES = {
    "chain-small": [
        ("synth.n_samples", 5000),
        ("ae.train.max_epochs", 30),
        ("train.phase1.max_epochs", 30),
        ("train.phase2.max_epochs", 20),
    ],
    "chain-paper": [
        ("synth.n_samples", 240),
        ("synth.dims", [12851, 300, 20]),
        ("ae.registry", None),
        ("ae.train.max_epochs", 2),
        ("ae.train.batch_size", 256),
        ("ae.train.lr", 1e-4),
        ("train.branches", None),
        ("train.gate", None),
        ("train.phase1.max_epochs", 5),
        ("train.phase2.max_epochs", 5),
    ],
}

# Held-out R² below which a chain run counts as a failed output check.
R2_FLOOR = {"chain-small": 0.5, "chain-paper": 0.2}

# The ctd-log mix. LFM-1b (Schedl, ICMR 2016), the log this workload stands
# in for, stores every event with a Unix timestamp, as popgate's own synth
# does. The ISO-8601 rows are there only to keep the program's ISO parser
# in the measured path; at 1% they bound how much of ctd-extract's time that
# parser can hold. The other values are assumptions, not taken from a
# published log: Zipf track popularity with a = 1.1, users drawn uniformly,
# 4% of rows out of the window, 997 malformed rows. 600k events, not the
# 3M of a real-log stand-in, so that a 30 s run holds several ctd-extract
# processes and reports their median.
CTD_LOG = {"events": 600_000, "tracks": 20_000, "users": 50_000, "artists": 2_000,
           "catalog_extra": 500, "zipf_a": 1.1, "iso_share": 0.01,
           "out_of_window_share": 0.04, "malformed": 997}
CTD_WINDOW = (2016, 2020)  # inclusive; the program's default window
CTD_MIN_YEAR, CTD_MAX_YEAR = 2012, 2023  # inclusive span of out-of-window years
CTD_GENERATOR_VERSION = 2  # bump when generate_ctd_log writes different rows


def _set(config: dict, dotted: str, value) -> None:
    *parents, leaf = dotted.split(".")
    node = config
    for p in parents:
        node = node[p]
    if value is None:
        node.pop(leaf, None)
    else:
        node[leaf] = value


def chain_config(workload: str, seed: int) -> dict:
    config = copy.deepcopy(README_CONFIG)
    config["seed"] = seed
    for key, value in CHAIN_OVERRIDES[workload]:
        _set(config, key, value)
    for loop in (config["ae"]["train"], config["train"]["phase1"], config["train"]["phase2"]):
        loop["patience"] = loop["max_epochs"] + 1
    return config


def trained_rows(workspace: Path, ae_summary: str) -> int:
    """Training-split rows times the epochs run by ae-train and both phases.

    The row count is the one ae-train reports ("on N train rows"); every
    loop trains on that split. It includes the validation rows each loop
    carves out of it, which the program does not report, so this counts
    10-15% more rows than the optimizer sees.
    """
    found = re.search(r"on (\d+) train rows", ae_summary)
    if not found:
        raise ValueError(f"no train row count in ae-train summary {ae_summary!r}")

    def history(rel: str) -> dict:
        return json.loads((workspace / rel).read_text())

    ae = history("models/ae/history.json")
    p1 = history("models/fused/phase1_history.json")
    p2 = history("models/fused/phase2_history.json")
    epochs = (sum(h["epochs_run"] for h in ae.values())
              + sum(h["epochs_run"] for h in p1.values()) + p2["epochs_run"])
    return int(found.group(1)) * epochs


# ---------------------------------------------------------------------------
# ctd-log generator


def _epoch(year: int) -> int:
    return int(np.datetime64(f"{year}-01-01T00:00:00", "s").astype(np.int64))


def generate_ctd_log(out_dir: Path, seed: int) -> dict:
    """Write events.csv, metadata.csv and run.json for one ctd-extract run.

    Returns the planted truth: in-window, out-of-window, malformed and
    ISO-8601 row counts, and the number of catalog tracks without in-window
    events.
    """
    spec = CTD_LOG
    rng = np.random.default_rng([seed, 0x6374646C6F67])
    n, n_tracks, n_users = spec["events"], spec["tracks"], spec["users"]

    # Zipf track popularity over a fixed catalog: rank r is drawn with
    # weight r^-a, ranks are shuffled onto track ids.
    weights = np.arange(1, n_tracks + 1, dtype=np.float64) ** -spec["zipf_a"]
    rank_to_track = rng.permutation(n_tracks)
    track = rank_to_track[rng.choice(n_tracks, size=n, p=weights / weights.sum())]
    user = rng.integers(n_users, size=n)

    lo_in, hi_in = _epoch(CTD_WINDOW[0]), _epoch(CTD_WINDOW[1] + 1)
    lo_all, hi_all = _epoch(CTD_MIN_YEAR), _epoch(CTD_MAX_YEAR + 1)
    outside = rng.random(n) < spec["out_of_window_share"]
    ts = rng.integers(lo_in, hi_in, size=n)
    n_out = int(outside.sum())
    # out-of-window times: uniform over the years before and after the window
    span_before, span_after = lo_in - lo_all, hi_all - hi_in
    off = rng.integers(span_before + span_after, size=n_out)
    ts[outside] = np.where(off < span_before, lo_all + off, hi_in + (off - span_before))

    iso = rng.random(n) < spec["iso_share"]
    ts_text = ts.astype(str).astype(object)
    ts_text[iso] = np.char.add(
        np.datetime_as_string(ts[iso].astype("datetime64[s]"), unit="s"), "Z"
    ).astype(object)

    user_text = np.array([f"u{u:06d}" for u in range(n_users)], dtype=object)[user]
    track_names = np.array([f"t{t:06d}" for t in range(n_tracks)], dtype=object)
    track_text = track_names[track]

    # planted malformed rows: an empty id, an empty or unparseable timestamp
    bad = rng.choice(n, size=spec["malformed"], replace=False)
    kind = rng.integers(4, size=bad.size)
    user_text[bad[kind == 0]] = ""
    track_text[bad[kind == 1]] = ""
    ts_text[bad[kind == 2]] = ""
    ts_text[bad[kind == 3]] = "not-a-time"
    malformed = np.zeros(n, dtype=bool)
    malformed[bad] = True

    in_window = ~outside & ~malformed
    played = np.zeros(n_tracks, dtype=bool)
    played[track[in_window]] = True
    n_catalog = n_tracks + spec["catalog_extra"]  # extra tracks never appear in the log

    out_dir.mkdir(parents=True, exist_ok=True)
    lines = map(",".join, zip(user_text, track_text, ts_text))
    with open(out_dir / "events.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("user_id,track_id,timestamp\n")
        fh.write("\n".join(lines))
        fh.write("\n")
    artist = rng.integers(spec["artists"], size=n_catalog)
    with open(out_dir / "metadata.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("track_id,artist_id\n")
        fh.writelines(f"t{t:06d},a{artist[t]:05d}\n" for t in range(n_catalog))
    config = {
        "seed": seed,
        "ctd": {"events": "events.csv", "metadata": "metadata.csv",
                "out": "out/ctd.csv", "mode": "temporal"},
    }
    (out_dir / "run.json").write_text(json.dumps(config, indent=2) + "\n")
    return {
        "in_window": int(in_window.sum()),
        "out_of_window": int((outside & ~malformed).sum()),
        "malformed": int(malformed.sum()),
        "zero_filled": int(n_catalog - played.sum()),
        "iso_rows": int((iso & ~malformed).sum()),
    }


def cached_ctd_log(cache_root: Path, seed: int) -> tuple[Path, dict]:
    """Generate the ctd-log inputs once per seed and generator settings;
    keep the two most recently used entries and delete older ones."""
    spec = [CTD_GENERATOR_VERSION, CTD_LOG, CTD_WINDOW, CTD_MIN_YEAR, CTD_MAX_YEAR]
    key = f"ctd-log-s{seed}-{hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:12]}"
    entry = cache_root / key
    truth_path = entry / "truth.json"
    if truth_path.exists():
        truth = json.loads(truth_path.read_text())
    else:
        if entry.exists():
            shutil.rmtree(entry)
        tmp = cache_root / (key + ".tmp")
        if tmp.exists():
            shutil.rmtree(tmp)
        truth = generate_ctd_log(tmp, seed)
        (tmp / "truth.json").write_text(json.dumps(truth) + "\n")
        tmp.rename(entry)
    truth_path.touch()
    entries = sorted(
        (p for p in cache_root.iterdir() if (p / "truth.json").exists()),
        key=lambda p: (p / "truth.json").stat().st_mtime,
        reverse=True,
    )
    for old in entries[2:]:
        shutil.rmtree(old)
    return entry, truth
