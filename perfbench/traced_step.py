"""Run one popgate subcommand with timing wrappers installed from outside.

Usage: ``python perfbench/traced_step.py SPANS_OUT <subcommand> --config run.json``

The wrappers sit at the binding sites the callers actually use: names that
``popgate.pipeline`` imported from other modules are replaced in the
pipeline's namespace, methods are replaced on their class (``Adam.step``
therefore also covers ``AdamW``). Each call records a span (name, start,
end, parent) in memory, plus counts taken where the work happens. The spans
and counts are written to SPANS_OUT as JSON when the subcommand returns.
The program's outputs are untouched, so traced runs hash the same.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time


class Tracer:
    """Spans in parallel lists; `stack` holds the indices of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.open_names: list[str] = []
        self.counts: dict[str, float] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name, after=None, name_of=None):
        """Return `fn` timed under span `name` (or `name_of(*args)`).

        `after(args, result)` records counts once the call returns. A call
        made while a span of the same name is open is not recorded again,
        so a name's total never counts one interval twice.
        """
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, open_names = self.stack, self.open_names
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = name_of(*args) if name_of else name
            if span in open_names:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            open_names.append(span)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                open_names.pop()
            if after is not None:
                after(args, result)
            return result

        return timed

    def dump(self, path: str) -> None:
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        body = {
            "names": table,
            "spans": [[code[n], s, e, p] for n, s, e, p in
                      zip(self.names, self.starts, self.ends, self.parents)],
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _install(tracer: Tracer, target: str, name: str, after=None, name_of=None) -> None:
    """Replace `module:Owner.attr` (or `module:attr`) with its timed form."""
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for o in owners:
        owner = getattr(owner, o)
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(tracer.wrap(raw.__func__, name, after, name_of)))
    else:
        setattr(owner, attr, tracer.wrap(raw, name, after, name_of))


def install_all(tracer: Tracer) -> None:
    c = tracer.count

    def bytes_read(args, _):
        c("tabular.bytes_read", _size(args[0]))

    def bytes_written(args, _):
        c("tabular.bytes_written", _size(args[0]))

    def hashed(args, _):
        c("manifest.bytes_hashed", _size(args[0]))

    def ingested(_, result):
        c("ctd.rows_read", result.n_events + result.n_malformed + result.n_out_of_window)
        c("ctd.events_kept", result.n_events)
        c("ctd.track_years", len(result.counts))

    def ae_epochs(_, result):
        c("autoenc.epochs", result[2]["epochs_run"])

    def fusion_epochs(_, history):
        c("fusion.epochs", history["epochs_run"])

    def optim_bytes(args, _):
        # minimum traffic of one Adam update: theta, m and v read and
        # written, the gradient read: 7 float64 arrays of the parameter shape
        numel = sum(p.value.size for p in args[0].params)
        c("nn.optim_bytes", 7 * 8 * numel)

    def clipped(_, factor):
        c("nn.clip_calls")
        if factor != 1.0:
            c("nn.clip_fired")

    def step_name(command, *_):
        return "pipeline." + command.replace("-", "_")

    _install(tracer, "popgate.cli:run_command", "pipeline", name_of=step_name)
    _install(tracer, "popgate.manifest:file_sha256", "manifest.hash", hashed)
    for attr, name, hook in (
        ("read_matrix_csv", "tabular.read_matrix", bytes_read),
        ("write_matrix_csv", "tabular.write_matrix", bytes_written),
        ("read_columns", "tabular.read_csv", bytes_read),
        ("write_csv", "tabular.write_csv", bytes_written),
        ("synth_generate", "data.synth", None),
        ("clean", "data.clean", None),
        ("normalize_lyrics", "data.clean", None),
        ("stratified_split", "data.split", None),
        ("scaler_fit", "data.scaler", None),
        ("scaler_apply", "data.scaler", None),
        ("scaler_invert", "data.scaler", None),
        ("ingest_events", "ctd.ingest", ingested),
        ("build_ctd_dataset", "ctd.build", None),
        ("train_group_autoencoder", "autoenc.train", ae_epochs),
        ("phase1_train", "fusion.phase1", fusion_epochs),
        ("phase2_train", "fusion.phase2", fusion_epochs),
        ("gate_report", "fusion.gate_report", None),
        ("save_ensemble", "fusion.save", None),
        ("load_ensemble", "fusion.load", None),
    ):
        _install(tracer, f"popgate.pipeline:{attr}", name, hook)
    for target, name, hook in (
        ("popgate.autoenc.train:scaler_fit", "data.scaler", None),
        ("popgate.autoenc.train:scaler_apply", "data.scaler", None),
        ("popgate.autoenc.train:CompressorEnsemble.compress", "autoenc.compress", None),
        ("popgate.autoenc.train:CompressorEnsemble.save", "autoenc.save", None),
        ("popgate.autoenc.train:CompressorEnsemble.load", "autoenc.load", None),
        ("popgate.fusion.model:GatedEnsemble.predict", "fusion.predict", None),
        ("popgate.nn.layers:Dense.forward", "nn.dense_fwd", None),
        ("popgate.nn.layers:Dense.backward", "nn.dense_bwd", None),
        ("popgate.nn.layers:BatchNorm.forward", "nn.batchnorm_fwd", None),
        ("popgate.nn.layers:BatchNorm.backward", "nn.batchnorm_bwd", None),
        ("popgate.nn.layers:activation_forward", "nn.activation", None),
        ("popgate.nn.layers:activation_backward", "nn.activation", None),
        ("popgate.nn.optim:Adam.step", "nn.optim_step", optim_bytes),
        ("popgate.autoenc.train:clip_grad_norm", "nn.clip", clipped),
        ("popgate.fusion.train:clip_grad_norm", "nn.clip", clipped),
        ("popgate.autoenc.model:snapshot_state", "nn.snapshot", None),
        ("popgate.fusion.train:snapshot_state", "nn.snapshot", None),
        ("popgate.autoenc.train:save_checkpoint", "nn.checkpoint_save", None),
        ("popgate.fusion.model:save_checkpoint", "nn.checkpoint_save", None),
        ("popgate.autoenc.train:load_checkpoint", "nn.checkpoint_load", None),
        ("popgate.fusion.model:load_checkpoint", "nn.checkpoint_load", None),
    ):
        _install(tracer, target, name, hook)


def main(argv: list[str]) -> int:
    spans_out, *cli_args = argv
    import popgate.cli

    tracer = Tracer()
    install_all(tracer)
    try:
        return popgate.cli.main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
