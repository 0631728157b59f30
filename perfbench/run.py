"""The popgate benchmark.

Runs popgate the way its users do: one ``python -m popgate.cli <subcommand>
--config run.json`` process per step, in a closed loop with a single client
(each step starts when the previous one has exited). BLAS threads are pinned
in each child's environment before numpy loads.

    python3 perfbench/run.py --workload chain-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1      # every workload, full report

Run it from the root of a popgate checkout; it imports the program from
``src/`` there and writes only under ``.perfbench_work/``. With ``--trace 0``
the last stdout line is the end-to-end result; with ``--trace 1`` one
untraced and one traced iteration run, and the last line holds the per-layer
metrics from the spans that ``traced_step.py`` records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# The parent imports numpy for input generation; keep its BLAS small too.
BLAS_THREADS = min(2, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 8  # per block; one block before and one after the iterations
CHILD_TIMEOUT_S = 150  # a step this slow is broken: a whole run must end in 180 s

WORKLOADS = ("chain-small", "chain-paper", "ctd-log")
STEPS = {"chain-small": wl.CHAIN, "chain-paper": wl.CHAIN, "ctd-log": ("ctd-extract",)}

# End-to-end metrics and their units. BENCHMARK.json declares the ones that
# every workload reports with the same meaning and a steady value (setup_s,
# chain_s, peak_rss_mb); the rest are printed. ctd-log runs no training or
# inference; the chain workloads read too few events, a seed-dependent
# number, for a steady event rate; prep_s on the chain workloads rests on
# one ~5 s synth step and spreads about twice as wide as chain_s.
UNITS = {"setup_s": "s", "chain_s": "s", "prep_s": "s", "peak_rss_mb": "MB",
         "ctd_events_per_s": "events/s", "train_s": "s", "infer_s": "s",
         "train_rows_per_s": "rows/s", "test_r2": "r2"}

LAYER_TIMES = (
    [f"pipeline.{s.replace('-', '_')}" for s in wl.CHAIN]
    + ["manifest.hash", "tabular.read_matrix", "tabular.write_matrix",
       "tabular.read_csv", "tabular.write_csv", "data.synth", "data.clean",
       "data.split", "data.scaler", "ctd.ingest", "ctd.build", "autoenc.train",
       "autoenc.compress", "autoenc.save", "autoenc.load", "nn.dense_fwd",
       "nn.dense_bwd", "nn.batchnorm_fwd", "nn.batchnorm_bwd", "nn.activation",
       "nn.optim_step", "nn.clip", "nn.snapshot", "nn.checkpoint_save",
       "nn.checkpoint_load", "fusion.phase1", "fusion.phase2", "fusion.predict",
       "fusion.gate_report", "fusion.save", "fusion.load"]
)
SELF_LAYERS = ("pipeline", "autoenc", "fusion")
COMPUTED = "B-computed"  # counts derived from file sizes and parameter shapes


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv: list[str], log_dir: Path, tag: str) -> dict:
    """Run one process to completion; wall time, exit code, peak RSS, stdout."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / f"{tag}.out", log_dir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4, not Popen.wait: it also returns the child's peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_text(errors="replace").strip(),
            "stderr": err_path.read_text(errors="replace").strip()[-2000:]}


def check_import(log_dir: Path) -> None:
    """Import popgate once, untimed: fills __pycache__ and checks that the
    program comes from this checkout's src/."""
    probe = run_child([sys.executable, "-c", "import popgate.cli, popgate; print(popgate.__file__)"],
                      log_dir, "setup-warm")
    if probe["rc"] != 0:
        raise ChildFailed(f"cannot import popgate from {SRC}: {probe['stderr']}")
    if not Path(probe["stdout"]).resolve().is_relative_to(SRC.resolve()):
        raise ChildFailed(f"popgate imported from {probe['stdout']}, not from {SRC}")


def setup_samples(log_dir: Path, tag: str) -> list[float]:
    """Wall times of fresh interpreters up to `import popgate.cli` done."""
    return [run_child([sys.executable, "-c", "import popgate.cli"], log_dir, f"{tag}-{i}")["wall"]
            for i in range(SETUP_SAMPLES)]


# ---------------------------------------------------------------------------
# one iteration of a workload


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(what)
        return ok


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "popgate").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def manifest_outputs(ws: Path) -> dict:
    out = {}
    for path in sorted((ws / "manifests").glob("*.manifest.json")):
        body = json.loads(path.read_text())
        out[body["subcommand"]] = {k: v["sha256"] for k, v in body["outputs"].items()}
    return out


def check_repeatable(checks: Checks, workload: str, seed: int, config: dict, hashes: dict) -> None:
    """Output hashes must equal those of every earlier run of this workload,
    seed, config and program source in this checkout."""
    config_digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]
    record = WORK / "hashes" / f"{workload}-s{seed}-{config_digest}-{source_digest()}.json"
    if record.exists():
        checks.check(json.loads(record.read_text()) == hashes,
                     "manifest output hashes differ from an earlier run at this seed")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(hashes, sort_keys=True) + "\n")


def count_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(buf.count(b"\n") for buf in iter(lambda: fh.read(1 << 20), b"")) - 1


def read_csv_columns(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",")[1:] for line in fh]
    return header[1:], np.array(rows, dtype=np.float64).reshape(len(rows), len(header) - 1)


def run_iteration(workload: str, seed: int, traced: bool, tag: str) -> tuple[dict, Checks, list]:
    """Run the workload's steps once in a fresh workspace; returns timings,
    the output checks, and (traced) the span files. The result's "ok" is
    False when a step failed or its outputs could not be read; it then holds
    only the times and RSS seen so far."""
    ws = WORK / "ws" / workload
    if ws.exists():
        shutil.rmtree(ws)
    ws.mkdir(parents=True)
    logs = WORK / "logs" / workload / tag
    if logs.exists():
        shutil.rmtree(logs)
    if workload == "ctd-log":
        inputs, truth = wl.cached_ctd_log(WORK / "cache", seed)
        config = json.loads((inputs / "run.json").read_text())
        for key in ("events", "metadata"):
            config["ctd"][key] = str(inputs / config["ctd"][key])
        events = inputs / "events.csv"
    else:
        config, truth = wl.chain_config(workload, seed), None
        events = ws / config["ctd"]["events"]
    cfg_path = ws / "run.json"
    cfg_path.write_text(json.dumps(config, indent=2) + "\n")

    checks, times, rss, out, span_files = Checks(), {}, 0.0, {}, []
    for step in STEPS[workload]:
        if traced:
            spans = logs / f"{step}.spans.json"
            argv = [sys.executable, str(HERE / "traced_step.py"), str(spans), step,
                    "--config", str(cfg_path)]
            span_files.append(spans)
        else:
            argv = [sys.executable, "-m", "popgate.cli", step, "--config", str(cfg_path)]
        res = run_child(argv, logs, step)
        times[step], out[step] = res["wall"], res["stdout"]
        rss = max(rss, res["rss_mb"])
        if not checks.check(res["rc"] == 0, f"{step} exited {res['rc']}: {res['stderr'][-300:]}"):
            return {"ok": False, "times": times, "rss_mb": rss}, checks, span_files

    result = {"ok": True, "times": times, "rss_mb": rss}
    if truth is not None:
        result["planted"] = truth  # reported, so a CTD claim can name its ISO share
    try:
        result["ctd_rows"] = count_rows(events)
        if workload == "ctd-log":
            check_ctd_outputs(checks, ws, out["ctd-extract"], truth)
        else:
            check_chain_outputs(checks, workload, ws, result)
            result["trained_rows"] = wl.trained_rows(ws, out["ae-train"])
        check_repeatable(checks, workload, seed, config, manifest_outputs(ws))
    except (OSError, ValueError, KeyError, IndexError) as e:
        checks.check(False, f"outputs unreadable: {e!r}")
        result["ok"] = False
    return result, checks, span_files


def check_chain_outputs(checks: Checks, workload: str, ws: Path, result: dict) -> None:
    n_clean = count_rows(ws / "data" / "metadata_clean.csv")
    names, pred = read_csv_columns(ws / "out" / "predictions.csv")
    checks.check(pred.shape[0] == n_clean,
                 f"predictions.csv has {pred.shape[0]} rows for {n_clean} cleaned tracks")
    alpha = pred[:, [names.index(f"alpha_{m}") for m in ("audio", "lyrics", "social")]]
    worst = float(np.max(np.abs(alpha.sum(axis=1) - 1.0))) if alpha.size else np.inf
    checks.check(worst <= 1e-6, f"gate weights sum to 1 only within {worst:.3g}")
    r2 = json.loads((ws / "out" / "metrics.json").read_text())["metrics"]["r2"]
    result["test_r2"] = r2
    checks.check(r2 >= wl.R2_FLOOR[workload], f"test R2 {r2:.4f} below {wl.R2_FLOOR[workload]}")


def check_ctd_outputs(checks: Checks, ws: Path, summary: str, truth: dict) -> None:
    names, X = read_csv_columns(ws / "out" / "ctd.csv")
    total = int(round(X[:, [i for i, n in enumerate(names) if n.endswith("_total_plays")
                            and n.startswith("y")]].sum()))
    checks.check(total == truth["in_window"],
                 f"yearly total plays sum to {total}, planted {truth['in_window']}")
    # "ctd-extract: K tracks with events, Z zero-filled, M malformed and O out-of-window ..."
    words = summary.replace(",", " ").split()
    tally = {words[i + 1]: int(words[i]) for i in range(len(words) - 1) if words[i].isdigit()}
    for key, planted in (("zero-filled", "zero_filled"), ("malformed", "malformed"),
                         ("out-of-window", "out_of_window")):
        checks.check(tally.get(key) == truth[planted],
                     f"{key} tally {tally.get(key)} != planted {truth[planted]}")


# ---------------------------------------------------------------------------
# metrics


def iteration_metrics(workload: str, it: dict) -> dict:
    t = it["times"]
    m = {"chain_s": sum(t.values()),
         "prep_s": sum(t[s] for s in wl.PREP if s in t),
         "ctd_events_per_s": it["ctd_rows"] / t["ctd-extract"],
         "peak_rss_mb": it["rss_mb"]}
    if workload != "ctd-log":
        m["train_s"] = sum(t[s] for s in wl.TRAIN)
        m["infer_s"] = sum(t[s] for s in wl.INFER)
        m["train_rows_per_s"] = it["trained_rows"] / m["train_s"]
        m["test_r2"] = it["test_r2"]
    return m


def layer_metrics(span_files: list[Path]) -> dict:
    """Per-layer totals, self times and counts from one traced iteration."""
    totals = {name: 0.0 for name in LAYER_TIMES}
    self_time = {layer: 0.0 for layer in SELF_LAYERS}
    counts: dict[str, float] = {}
    steps_ms: list[float] = []
    for path in span_files:
        body = json.loads(path.read_text())
        names, spans = body["names"], body["spans"]
        child_time = [0.0] * len(spans)
        for code, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (code, start, end, _) in enumerate(spans):
            name = names[code]
            totals[name] = totals.get(name, 0.0) + (end - start)
            layer = name.split(".")[0]
            if layer in self_time:
                self_time[layer] += (end - start) - child_time[i]
            if name == "nn.optim_step":
                steps_ms.append((end - start) * 1e3)
        for key, value in body["counts"].items():
            counts[key] = counts.get(key, 0) + value

    m = {f"{name}_s": (totals[name], "s") for name in LAYER_TIMES}
    m.update({f"{layer}.self_s": (v, "s") for layer, v in self_time.items()})
    p50, tail, tail_pct = percentiles(steps_ms)
    rows = counts.get("ctd.rows_read", 0)
    clip_calls = counts.get("nn.clip_calls", 0)
    # The work counts below (rows, track-years, epochs, steps, the two
    # ratios and the tail's percentile label) are fixed by the input and the
    # config or describe training, not speed. They are printed with the
    # report; BENCHMARK.json declares only times, the tail latencies and the
    # computed byte counts.
    m.update({
        "manifest.bytes_hashed": (counts.get("manifest.bytes_hashed", 0), COMPUTED),
        "tabular.bytes_read": (counts.get("tabular.bytes_read", 0), COMPUTED),
        "tabular.bytes_written": (counts.get("tabular.bytes_written", 0), COMPUTED),
        "ctd.rows_read": (rows, "count"),
        "ctd.kept_ratio": (counts.get("ctd.events_kept", 0) / rows if rows else 0.0, "ratio"),
        "ctd.track_years": (counts.get("ctd.track_years", 0), "count"),
        "autoenc.epochs": (counts.get("autoenc.epochs", 0), "count"),
        "fusion.epochs": (counts.get("fusion.epochs", 0), "count"),
        "nn.optim_steps": (len(steps_ms), "count"),
        "nn.optim_step_p50_ms": (p50, "ms"),
        "nn.optim_step_tail_ms": (tail, "ms"),
        "nn.optim_step_tail_pct": (tail_pct, "%"),
        "nn.optim_bytes_per_step": (
            counts.get("nn.optim_bytes", 0) / len(steps_ms) if steps_ms else 0.0, COMPUTED),
        "nn.clip_fired_ratio": (counts.get("nn.clip_fired", 0) / clip_calls if clip_calls else 0.0,
                                "ratio"),
    })
    return m


def percentiles(samples: list[float]) -> tuple[float, float, float]:
    """Median, and the highest of a fixed ladder of percentiles that has at
    least ten samples beyond it (0s when there are no samples)."""
    if not samples:
        return 0.0, 0.0, 0.0
    arr = np.asarray(samples)
    ladder = [p for p in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9) if arr.size * (1 - p / 100) >= 10]
    tail_pct = ladder[-1] if ladder else 50.0
    return float(np.median(arr)), float(np.percentile(arr, tail_pct)), tail_pct


# ---------------------------------------------------------------------------
# runs


def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[dict, Checks, dict]:
    """Iterate the workload for about `seconds`: always once, and again only
    while one more iteration of median length still fits."""
    # Machine speed drifts within seconds, so set-up is sampled at both ends
    # of the run rather than in one burst.
    setup_logs = WORK / "logs" / workload / "setup"
    check_import(setup_logs)
    setup = setup_samples(setup_logs, "before")
    checks, per_iter, durations = Checks(), [], []
    t0 = time.perf_counter()
    while True:
        t_it = time.perf_counter()
        it, c, _ = run_iteration(workload, seed, traced=False, tag=f"it{len(per_iter)}")
        durations.append(time.perf_counter() - t_it)
        checks.attempted += c.attempted
        checks.failed += c.failed
        if not it["ok"]:
            break
        per_iter.append(iteration_metrics(workload, it))
        if time.perf_counter() - t0 + statistics.median(durations) > seconds:
            break
    setup += setup_samples(setup_logs, "after")
    metrics = {"setup_s": (statistics.median(setup), "s")}
    for key in per_iter[0] if per_iter else ():
        metrics[key] = (statistics.median(m[key] for m in per_iter), UNITS[key])
    detail = {"iterations": len(per_iter), "setup_samples_s": setup,
              "per_iteration": per_iter}
    if "planted" in it:
        detail["ctd_log_planted_rows"] = it["planted"]
    return metrics, checks, detail


def run_traced(workload: str, seed: int) -> tuple[dict, Checks, dict]:
    """One untraced and one traced iteration: per-layer metrics from the
    traced one, tracing overhead as the difference of their chain times."""
    checks = Checks()
    check_import(WORK / "logs" / workload / "setup")
    base, c0, _ = run_iteration(workload, seed, traced=False, tag="untraced")
    traced, c1, span_files = run_iteration(workload, seed, traced=True, tag="traced")
    for c in (c0, c1):
        checks.attempted += c.attempted
        checks.failed += c.failed
    metrics = {}
    if base["ok"] and traced["ok"]:
        metrics = layer_metrics(span_files)
        untraced_s, traced_s = sum(base["times"].values()), sum(traced["times"].values())
        metrics.update({"trace.chain_s": (traced_s, "s"),
                        "trace.untraced_chain_s": (untraced_s, "s"),
                        "trace.overhead_s": (traced_s - untraced_s, "s")})
    return metrics, checks, {"steps_s": traced["times"]}


def report(workload: str, metrics: dict, checks: Checks, detail: dict, env: dict) -> None:
    print(f"== {workload}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {value:16.6f} {unit}")
    ratio = len(checks.failed) / checks.attempted if checks.attempted else 1.0
    print(f"  {'fail_ratio':28s} {ratio:16.6f} ratio  "
          f"({len(checks.failed)} failed of {checks.attempted} steps and output checks)")
    for what in checks.failed:
        print(f"  FAILED: {what}")
    print("  env " + json.dumps(env, sort_keys=True))
    print("  detail " + json.dumps(detail, sort_keys=True))


def result_line(metrics: dict, checks: Checks, names: list[str]) -> str:
    return json.dumps({
        "correct": not checks.failed and all(n in metrics for n in names),
        "attempted": max(checks.attempted, 1),
        "failed": len(checks.failed) if checks.attempted else 1,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in names if n in metrics},
    })


def declared(kind: str) -> list[str]:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload once and report")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.all and not args.workload:
        ap.error("pass --workload NAME or --all")
    if not (SRC / "popgate" / "cli.py").is_file():
        print(f"error: no popgate sources at {SRC}; run from a popgate checkout",
              file=sys.stderr)
        return 2
    env = environment()
    failures = 0
    for workload in WORKLOADS if args.all else [args.workload]:
        try:
            if args.trace:
                metrics, checks, detail = run_traced(workload, args.seed)
            else:
                metrics, checks, detail = run_untraced(workload, args.seed, args.seconds)
        except ChildFailed as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        report(workload, metrics, checks, detail, env)
        failures += len(checks.failed)
    if args.all:
        return 1 if failures else 0
    names = declared("per_layer" if args.trace else "end_to_end")
    print(result_line(metrics, checks, names))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
