"""Print every function under src/ that no step of the benchmark chains calls.

Usage: python tools/reachable.py

Runs `readme 46`, `chain-small 701` at 600 tracks and `chain-paper 701`
(each step as its own process, through tools/chain_digest.py), then
ctd-extract on the ctd-log inputs of seed 701 (perfbench/workloads.py), all
in a temporary directory. Every process loads a generated `sitecustomize.py`
from `PYTHONPATH`, which installs a `sys.setprofile` hook that records each
code object called. Forked lanes and matrix-CSV workers re-arm the hook
after the fork (`os.register_at_fork`), and every process appends what it
recorded to its own file at exit and at `os._exit`, which is how a forked
worker ends.

Prints `module:qualname` for each function, method or nested function
defined in src/ that no process called, in file and line order; lambdas
and comprehensions count as part of the function around them. The step
lines of tools/chain_digest.py and one line of counts go to stderr. Error
paths and the paths of inputs that the chains do not hold are expected
here: the list shows unused code, and gates nothing.
"""

from __future__ import annotations

import inspect
import os
import sys
import tempfile
from pathlib import Path
from types import CodeType

sys.path.insert(0, str(Path(__file__).resolve().parent))

from chain_digest import SRC, _workloads, chain_config, run_chain, run_step  # noqa: E402

CHAINS = (("readme", 46, None), ("chain-small", 701, 600), ("chain-paper", 701, None))
CTD_SEED = 701

_HOOK = '''\
"""Record every code object this process calls (tools/reachable.py)."""

import atexit
import os
import sys

_seen = {{}}  # id -> code object: kept alive, so that no id is reused


def _profile(frame, event, arg):
    if event == "call":
        _seen[id(frame.f_code)] = frame.f_code


def _dump():
    with open(os.path.join({out!r}, f"{{os.getpid()}}.txt"), "a", encoding="utf-8") as fh:
        for code in _seen.values():
            if code.co_filename.startswith({src!r}):
                fh.write(f"{{code.co_filename}}\\t{{code.co_firstlineno}}\\t{{code.co_qualname}}\\n")


def _exit(status, _real=os._exit):
    _dump()
    _real(status)


def _arm():
    _seen.clear()
    sys.setprofile(_profile)


os._exit = _exit
atexit.register(_dump)
os.register_at_fork(after_in_child=_arm)
_arm()
'''


def write_hook(hook_dir: Path, out_dir: Path) -> None:
    """Write the `sitecustomize.py` into `hook_dir`: each process that loads
    it appends the src/ code objects it called to `out_dir`/<pid>.txt."""
    (hook_dir / "sitecustomize.py").write_text(
        _HOOK.format(out=str(out_dir), src=str(SRC) + os.sep), encoding="utf-8")


def _functions(code: CodeType):
    """(first line, qualified name) of every function within `code`."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield const.co_firstlineno, const.co_qualname
            yield from _functions(const)


def functions() -> dict[tuple[str, int, str], str]:
    """Every function defined under src/, keyed by (path relative to src/,
    first line, qualified name) -> `module:qualname`."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        module = ".".join(rel.with_suffix("").parts).removesuffix(".__init__")
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for line, qualname in _functions(code):
            found[(rel.as_posix(), line, qualname)] = f"{module}:{qualname}"
    return found


def called(out_dir: Path) -> set[tuple[str, int, str]]:
    """(path relative to src/, first line, qualified name) of every src/
    code object that some process recorded in `out_dir`."""
    seen = set()
    for dump in out_dir.glob("*.txt"):
        for row in dump.read_text(encoding="utf-8").splitlines():
            filename, line, qualname = row.split("\t")
            seen.add((Path(filename).relative_to(SRC).as_posix(), int(line), qualname))
    return seen


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reachable-") as tmp:
        tmp = Path(tmp)
        hook_dir, out_dir = tmp / "hook", tmp / "seen"
        hook_dir.mkdir()
        out_dir.mkdir()
        write_hook(hook_dir, out_dir)
        # generated outside the hook: only the steps are profiled
        ctd_dir = tmp / "ctd-log"
        ctd_dir.mkdir()
        _workloads().generate_ctd_log(ctd_dir, CTD_SEED)
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(hook_dir), os.environ.get("PYTHONPATH")) if p)
        for name, seed, rows in CHAINS:
            workspace = tmp / name
            workspace.mkdir()
            if run_chain(chain_config(name, seed, rows), workspace) != 0:
                return 1
        rc = run_step("ctd-extract", ctd_dir / "run.json")[0]
        if rc != 0:
            print(f"error: ctd-extract exited {rc}", file=sys.stderr)
            return 1
        everything, reached = functions(), called(out_dir)
    missed = [everything[key] for key in sorted(everything) if key not in reached]
    print(f"{len(everything)} functions under src/, {len(everything) - len(missed)} called, "
          f"{len(missed)} not", file=sys.stderr)
    for name in missed:
        print(name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
