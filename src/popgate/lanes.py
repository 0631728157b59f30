"""Forked worker processes, and independent jobs spread over the cores.

`_fork` starts a function in a forked worker with a pipe back to its caller,
and `_workers` kills and reaps every worker on any way out of a block.
`popgate.tabular` splits large matrix CSVs over them. `run_lanes` runs
independent jobs, such as the autoencoder groups (trained or encoded), the
phase-1 experts or the byte ranges of a large play log
(`popgate.ctd.events`), on one lane per core the process may run on
(`os.sched_getaffinity`, which `taskset` restricts): lane 0 is the calling
process, lanes 1…k−1 are forked workers.
A worker starts by moving off its parent's core once, keeping its mask: on
a machine whose kernel does not balance load between cores, the two would
otherwise share the core the parent forked on.

Workers are forked, not spawned, so that they read the caller's arrays and
call its functions in place; only their results are pickled. A CLI process
runs BLAS on one thread, so it holds no BLAS thread pool when it forks, and
popgate starts no threads of its own. Workers end through `os._exit`, so
they run none of the caller's `finally` blocks or atexit handlers, and
nothing they record in memory (such as a tracer's spans) reaches the caller.
"""

from __future__ import annotations

import os
import pickle
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Mapping

from .exceptions import PopgateError


@contextmanager
def _workers() -> Iterator[list]:
    """A list for `_fork`'s (process, pipe) pairs. On leaving, every pipe is
    closed and every worker still running is killed, so that each is reaped
    whether the block returns or raises."""
    workers: list = []
    try:
        yield workers
    finally:
        for proc, pipe in workers:
            pipe.close()
            if proc.exitcode is None:
                proc.kill()
                proc.join()


def _core() -> int | None:
    """The core this process runs on, from /proc where there is one."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _child(target, fd: int, parent_core: int | None, *args) -> None:
    # A forked process starts on its parent's core. Where the kernel does not
    # balance load between cores (a cpuset with sched_load_balance off), both
    # would stay there, so the worker moves off it once, keeping its mask.
    cores = os.sched_getaffinity(0)
    if parent_core in cores and len(cores) > 1:
        try:
            os.sched_setaffinity(0, cores - {parent_core})
            os.sched_setaffinity(0, cores)
        except OSError:
            pass
    with open(fd, "wb") as out:
        target(out, *args)


def _fork(target, *args) -> tuple:
    """Start `target(out, *args)` in a forked worker, with `out` the write end
    of a pipe -> (process, the read end as a binary file)."""
    # imported here: the CLI's start-up never pays for multiprocessing
    import multiprocessing

    r, w = os.pipe()
    pipe = open(r, "rb")
    try:
        proc = multiprocessing.get_context("fork").Process(
            target=_child, args=(target, w, _core(), *args))
        proc.start()
    except BaseException:
        pipe.close()
        raise
    finally:
        os.close(w)
    return proc, pipe


def _worker_failed(path: Path, proc) -> PopgateError:
    return PopgateError(f"{path}: a worker process exited with code {proc.exitcode}")


def _lanes(weights: list[float], k: int) -> list[list[int]]:
    """Job indices for each of `k` lanes by Graham's LPT rule (1969): by
    falling weight, each job goes to the lane with the least weight so far,
    the lowest lane on a tie. Each lane lists its jobs in input order."""
    load = [0.0] * k
    lanes: list[list[int]] = [[] for _ in range(k)]
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        lane = min(range(k), key=lambda j: load[j])
        load[lane] += weights[i]
        lanes[lane].append(i)
    return [sorted(lane) for lane in lanes]


def _run_jobs(jobs: list[Callable], release: Callable[[], None] | None = None
              ) -> tuple[list, Exception | None]:
    """Call each job in order until one raises -> (the results so far, its
    error). With `release`, each job returns the function that finishes it:
    the jobs are called up to the first that raises, then `release()`, then
    the functions they returned, in order. A job's own error thus comes
    after the errors of the jobs before it, as in a serial loop."""
    error = None
    if release is not None:
        finishers = []
        for job in jobs:
            try:
                finishers.append(job())
            except Exception as exc:
                error = exc
                break
        release()
        jobs = finishers
    results = []
    for i in range(len(jobs)):
        try:
            results.append(jobs[i]())
        except Exception as exc:
            return results, exc
        jobs[i] = None  # with it go the inputs it held
    return results, error


def _run_lane(out, jobs: list[Callable], release: Callable[[], None] | None) -> None:
    """A forked lane: its results and error, pickled. An error that does not
    survive pickling is sent as a PopgateError with its type and text."""
    results, error = _run_jobs(jobs, release)
    if error is not None:
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:
            error = PopgateError(f"{type(error).__name__}: {error}")
    pickle.dump((results, error), out)


def run_lanes(step: str, jobs: Mapping[str, tuple[float, Callable]],
              release: Callable[[], None] | None = None) -> dict:
    """Call every job, given by name as (weight, function of no arguments),
    spread over the lanes -> each job's result by name, in the order of `jobs`.

    Jobs go to lanes by `_lanes`, one lane per core the process may run on
    and at most one per job, so the heaviest job runs in the calling
    process. Each lane runs its jobs in the order of `jobs` and stops at
    its first error. Once every lane has ended and been reaped, the error of
    the earliest failed job in that order is raised: the error a serial
    loop would raise. A lane that dies before it reports fails as its first
    job, with a PopgateError naming `step` and the lane's jobs. With one
    lane, the jobs run inline, one after another.

    With `release`, each job's function returns the function that finishes
    the job (`_run_jobs`). Every lane calls `release()` after its own jobs'
    first calls and before any finishing one, the calling process only once
    the other lanes have forked. An input that only the first calls read,
    such as a matrix they gather rows from, is then dropped in every lane
    before any job finishes, and a lane holds only what its own jobs'
    first calls returned.
    """
    names = list(jobs)
    k = min(len(names), len(os.sched_getaffinity(0)))
    if k <= 1:
        lanes = [list(range(len(names)))]
    else:
        lanes = _lanes([jobs[name][0] for name in names], k)
    results: dict[int, object] = {}
    errors: dict[int, Exception] = {}

    def record(lane: list[int], done: list, error: Exception | None) -> None:
        results.update(zip(lane, done))
        if error is not None:
            errors[lane[len(done)]] = error

    with _workers() as workers:
        for lane in lanes[1:]:
            workers.append(_fork(_run_lane, [jobs[names[i]][1] for i in lane], release))
        record(lanes[0], *_run_jobs([jobs[names[i]][1] for i in lanes[0]], release))
        for (proc, pipe), lane in zip(workers, lanes[1:]):
            try:
                done, error = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # the lane died mid-way
                done = None
            proc.join()
            if proc.exitcode or done is None:
                lane_jobs = ", ".join(names[i] for i in lane)
                done, error = [], PopgateError(
                    f"{step}: the worker process running {lane_jobs} exited with code "
                    f"{proc.exitcode}")
            record(lane, done, error)
    if errors:
        raise errors[min(errors)]
    return {names[i]: results[i] for i in range(len(names))}
