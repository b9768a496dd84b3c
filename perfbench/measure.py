"""One measuring process of the pipeline benchmark (started by run.py).

For ``ckpt_resume`` a forked child first runs the workload once into
``<work>/ckpt``, untimed: the seeding run the timed runs replay. Then
the process makes its own first run, the warm-up, and repeats rounds
until ``--seconds`` have passed and at least ``MIN_ROUNDS`` are done. A
round is a set-up probe (a cold interpreter importing the pipeline), the
first run of a fresh process (see :class:`FreshForks`) and a batch of
warm runs in this process. A host-speed probe (see :mod:`hostspeed`)
follows each, and each sample records the ``scale`` that the probes on
either side of it give. Interleaved so, every metric samples the same
stretch of time. A batch is a fixed number of consecutive warm runs (see
:func:`batch_runs`); run.py takes the mean run of a batch as one sample.
With ``--trace 1`` one set-up probe first runs under ``-X importtime``
(the per-package split of set-up), a round is one batch, and batches
alternate untraced and traced (see :mod:`layers`) in the order U T T U,
U T T U, ..., so the tracing overhead is measured in the same warm
process, free of linear drift and of costs that recur every second run.
Every run's outputs are recorded for run.py's check; a run that raises
is recorded as failed and the loop goes on.

The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from multiprocessing import resource_tracker
from pathlib import Path

from repro.core.rnnotator import RnnotatorPipeline

import layers
from hostspeed import HostClock
from workloads import WORKLOADS

#: Imports the pipeline and constructs it, in a cold interpreter.
SETUP_PROBE = (
    "from repro.core.rnnotator import RnnotatorPipeline; RnnotatorPipeline()"
)

IMPORT_PACKAGES = ("repro", "numpy", "scipy", "networkx")

CHILD_TIMEOUT_S = 150

#: Shortest batch of warm runs, at the pace of the first run.
BATCH_S = 2.0

#: Fewest rounds (set-up probe, first run, warm batch) without
#: ``--trace``, however short the window.
MIN_ROUNDS = 5

#: Fewest batches of each kind with ``--trace 1``.
MIN_TRACED_BATCHES = 3


def output_digest(result) -> str:
    """SHA-256 over the merged transcripts, in output order."""
    h = hashlib.sha256()
    for contig in result.transcripts:
        h.update(f"{contig.contig_id}\t{contig.seq}\n".encode())
    return h.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def cpu_seconds() -> float:
    """User + sys CPU of this process and of every child it reaped."""
    return sum(
        r.ru_utime + r.ru_stime
        for r in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


class Runner:
    def __init__(self, workload, dataset, work: Path) -> None:
        self.workload = workload
        self.dataset = dataset
        self.work = work
        self.pipeline = RnnotatorPipeline()

    def _checkpoint_dir(self) -> Path | None:
        if self.workload.resumes:
            return self.work / "ckpt"
        if self.workload.fresh_checkpoint:
            return Path(tempfile.mkdtemp(prefix="ckpt-", dir=self.work))
        return None

    def run(self, kind: str, traced: bool = False) -> dict:
        ckpt = self._checkpoint_dir()
        config = self.workload.config(None if ckpt is None else str(ckpt))
        bytes_before = dir_bytes(ckpt) if traced and ckpt is not None else 0
        record: dict = {"kind": kind}
        spool = self.work / "spool"
        with layers.tracing(spool) if traced else nullcontext() as rec:
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                result = self.pipeline.run(self.dataset, config)
            except Exception as exc:  # a failed run is data, not a crash
                result = None
                record.update(ok=False, error=repr(exc))
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - c0
        if result is not None:
            stats = result.checkpoint_stats
            record.update(
                ok=True,
                digest=output_digest(result),
                total_ttc=result.total_ttc,
                total_cost=result.total_cost,
                complete_resume=(
                    stats is not None
                    and stats["unit_misses"] == 0
                    and stats["unit_hits"] > 0
                ),
            )
        record.update(wall_s=wall, cpu_s=cpu)
        if rec is not None:
            metrics = rec.metrics(wall)
            metrics["core.checkpoint.bytes"] = (
                dir_bytes(ckpt) - bytes_before if ckpt is not None else 0
            )
            record["layers"] = metrics
        if ckpt is not None and self.workload.fresh_checkpoint:
            shutil.rmtree(ckpt, ignore_errors=True)
        return record


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker the process
    backend started in this process, if any."""
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def in_fork(fn) -> tuple[dict, int]:
    """``fn()`` run in a forked child; returns its JSON result and pid.

    Called only while this process has not yet run the pipeline and has
    no Python threads, so the child is a fresh process from the
    pipeline's point of view, without paying the import and the input
    synthesis again.  The child is left unreaped: its resource usage
    joins this process's child totals only when :func:`reap` is called.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            with os.fdopen(write_fd, "w") as f:
                f.write(json.dumps(fn()))
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            stop_resource_tracker()
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as f:
        data = f.read()
    if not data:
        reap(pid)
    return json.loads(data), pid


class FreshForks:
    """First runs of fresh processes, on request at any time.

    A server process, forked while this process has not yet run the
    pipeline, forks one child per request (see :func:`in_fork`), so
    each first run is as fresh as the server however many warm runs
    this process has made since.  :meth:`close` ends the server and
    reaps it; the children's resource usage reaches this process's
    child totals through it.
    """

    def __init__(self, fn) -> None:
        req_read, self._requests = os.pipe()
        res_read, res_write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self._requests)
            os.close(res_read)
            status = 1
            try:
                with os.fdopen(res_write, "w") as results:
                    while os.read(req_read, 1):
                        run, child = in_fork(fn)
                        reap(child)
                        results.write(json.dumps(run) + "\n")
                        results.flush()
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(status)
        os.close(req_read)
        os.close(res_write)
        self._results = os.fdopen(res_read)

    def run(self) -> dict:
        os.write(self._requests, b"r")
        line = self._results.readline()
        if not line:
            raise RuntimeError("the first-run server ended")
        return json.loads(line)

    def close(self) -> None:
        os.close(self._requests)
        self._results.close()
        reap(self.pid)


def reap(pid: int) -> None:
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"forked run exited with status {status}")


def batch_runs(first_run_s: float) -> int:
    """Runs per batch: the fewest that last ``BATCH_S`` at the first
    run's pace, and an even number when more than one.  A full garbage
    collection of the parent's heap comes about every second resume of
    ``ckpt_resume`` and adds a quarter to that run; single resumes would
    split into two modes, and a batch of an even number of them carries
    its share of collections whatever their phase."""
    n = max(1, math.ceil(BATCH_S / first_run_s))
    return n + n % 2 if n > 1 else n


def warm_done(batches: int, trace: int, deadline: float) -> bool:
    """Past the window with enough batches; a traced execution ends on
    a whole U T T U group with ``MIN_TRACED_BATCHES`` of each kind."""
    if trace:
        enough = batches % 4 == 0 and batches // 2 >= MIN_TRACED_BATCHES
    else:
        enough = batches >= MIN_ROUNDS
    return enough and time.perf_counter() >= deadline


def setup_wall() -> float:
    """Wall seconds of a cold interpreter that imports the pipeline and
    constructs it."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], check=True, timeout=CHILD_TIMEOUT_S
    )
    return time.perf_counter() - t0


def import_seconds() -> dict[str, float]:
    """Self import time per package, from one set-up probe run under
    ``-X importtime``."""
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", SETUP_PROBE],
        check=True,
        timeout=CHILD_TIMEOUT_S,
        stderr=subprocess.PIPE,
        text=True,
    ).stderr
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in err.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        package = name.strip().split(".")[0]
        if package in totals:
            totals[package] += int(self_us) / 1e6
    return {f"setup.import.{p}_s": s for p, s in totals.items()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    imports = import_seconds() if args.trace else {}
    workload = WORKLOADS[args.workload]
    dataset = workload.dataset(args.seed, tiny=args.tiny)
    runner = Runner(workload, dataset, args.work)
    fresh = None
    try:
        seed_run = seeder = None
        if workload.resumes:
            # Untimed: fills <work>/ckpt for the resume runs.  Reaped only
            # after the peak is read, so the seeding run's memory (a full
            # fan-out) does not count as the resumes' peak.
            seed_run, seeder = in_fork(lambda: runner.run("seed"))
        if not args.trace:
            fresh = FreshForks(lambda: runner.run("first"))
        runs, setup = [], []
        clock = HostClock()
        # This process's own first run doubles as the warm-up.
        runs.append(dict(runner.run("first"), scale=clock.scale()))
        per_batch = batch_runs(runs[-1]["wall_s"])
        deadline = time.perf_counter() + args.seconds
        batch = 0
        while not warm_done(batch, args.trace, deadline):
            if fresh is not None:
                setup.append({"wall_s": setup_wall(), "scale": clock.scale()})
                runs.append(dict(fresh.run(), scale=clock.scale()))
            traced = bool(args.trace) and batch % 4 in (1, 2)
            kind = "traced" if traced else "warm"
            in_batch = [runner.run(kind, traced=traced) for _ in range(per_batch)]
            scale = clock.scale()
            runs.extend(dict(run, batch=batch, scale=scale) for run in in_batch)
            batch += 1
        if fresh is not None:
            fresh.close()
            fresh = None
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        if seeder is not None:
            reap(seeder)
        args.out.write_text(json.dumps({
            "seed_run": seed_run,
            "runs": runs,
            "setup": setup,
            "imports": imports,
            "probes": clock.probes,
            "peak_rss_mb": peak_kb / 1024,
        }))
    finally:
        if fresh is not None:
            fresh.close()
        stop_resource_tracker()


if __name__ == "__main__":
    main()
