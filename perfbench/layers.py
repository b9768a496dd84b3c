"""Per-layer wall-time tracing of one pipeline run, from outside ``src/``.

:func:`tracing` wraps the public entry points of the ``seq``, ``core``,
``assembly``, ``parallel`` and ``pilot`` layers for the duration of one
``RnnotatorPipeline.run`` and restores the originals afterwards, so the
untraced runs of the same process execute the unmodified program.

A wrapped call adds its inclusive wall time and a call count to its
layer.  Calls made while another wrapped layer is already open in the
same process are nested; only calls at depth 0 count toward the
top-level time, so ``core.driver_s`` (run wall minus top-level layer
time) is the self time of ``RnnotatorPipeline`` itself and of the
pilot/cloud simulation.

Pool workers are forked after the wrappers are installed, so the same
wrappers record inside them.  The wrapped ``run_workload`` appends each
worker's records for one workload to a spool file; the parent folds the
spool in after the run.  Tracing assumes a single-threaded parent, which
holds for the benchmark's configurations (no heartbeats, no cadence
sampling).
"""

from __future__ import annotations

import json
import os
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from repro.assembly import cleanup, dbg, sweep
from repro.core.checkpoint import CheckpointStore
from repro.core.merge import merge_contigs
from repro.core.preprocess import preprocess
from repro.core.quantify import quantify
from repro.parallel import executor
from repro.pilot import manager
from repro.pilot.states import UnitState
from repro.seq.readstore import ReadStore

#: The recorder of the traced run in progress.  Module-level because
#: the wrapped ``run_workload`` is shipped to pool workers by reference
#: and must reach the (forked copy of the) recorder from there.
_ACTIVE: "Recorder | None" = None

_ASSEMBLY_STAGE = "transcript-assembly"


class Recorder:
    """Layer times and counts of one traced run."""

    def __init__(self, spool_dir: Path) -> None:
        self.parent_pid = os.getpid()
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(exist_ok=True)
        self._clear()

    def _clear(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.toplevel_s = 0.0
        self._depth = 0
        self._open: Counter[str] = Counter()
        #: (kind, assembler, busy seconds, ran in a pool worker)
        self.busy: list[tuple[str, str | None, float, bool]] = []
        #: submit -> first outcome() return, per pool workload
        self.latency_s = 0.0
        self.pool_workers = 0
        self.unit_failures = 0

    # -- recording ---------------------------------------------------------

    def wrap(self, layer: str, fn):
        """``fn`` timed as ``layer``; a re-entrant call of the same layer
        (a fallback calling the serial build) is counted once."""
        rec = self

        def timed(*args, **kwargs):
            if rec._open[layer]:
                return fn(*args, **kwargs)
            rec._open[layer] += 1
            rec._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                rec._depth -= 1
                rec._open[layer] -= 1
                rec.add(layer, dt)

        return timed

    def add(self, layer: str, seconds: float) -> None:
        """Count a finished call; it is top-level when no wrapped layer
        is open around it."""
        self.seconds[layer] += seconds
        self.calls[layer] += 1
        if self._depth == 0:
            self.toplevel_s += seconds

    def note_busy(self, work, seconds: float) -> None:
        assembler = getattr(work, "assembler_name", None)
        if assembler is not None:
            kind = "assembly"
        elif isinstance(work, executor.ReplayWorkload):
            kind = "replay"
        elif isinstance(work, sweep.SpectrumShardWorkload):
            kind = "shard"
        else:
            kind = "other"
        in_worker = os.getpid() != self.parent_pid
        self.busy.append((kind, assembler, seconds, in_worker))

    # -- worker spool ------------------------------------------------------

    def start_worker_workload(self) -> None:
        """Drop the records a forked worker inherited from the parent."""
        self._clear()

    def spool(self) -> None:
        record = {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "busy": self.busy,
        }
        path = self.spool_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a") as f:
            f.write(json.dumps(record) + "\n")

    def fold_spool(self) -> None:
        """Merge every worker record into this (parent) recorder."""
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                for layer, s in record["seconds"].items():
                    self.seconds[layer] += s
                self.calls.update(record["calls"])
                self.busy.extend(tuple(b) for b in record["busy"])
            path.unlink()

    # -- derived metrics -----------------------------------------------------

    def metrics(self, run_wall_s: float) -> dict[str, float]:
        s, n = self.seconds, self.calls
        units = [b for b in self.busy if b[0] == "assembly"]
        pooled = [b for b in self.busy if b[3]]
        fanout_s = s["pilot.fanout"]
        fanout_busy = sum(b[2] for b in pooled if b[0] in ("assembly", "replay"))
        loads = n["core.checkpoint.load"]
        out = {
            "assembly.dbg.unitigs_s": s["assembly.dbg.unitigs"],
            "assembly.dbg.unitig_calls": n["assembly.dbg.unitigs"],
            "assembly.cleanup_s": s["assembly.cleanup"],
            "assembly.spectra_s": s["assembly.spectra"],
            "assembly.spectra_wait_s": s["assembly.spectra_wait"],
            "assembly.units": len(units),
            "assembly.unit_busy_s": sum(b[2] for b in units),
            "assembly.unit_busy_max_s": max((b[2] for b in units), default=0.0),
            "parallel.pool_start_s": s["parallel.pool_start"],
            "parallel.pool_shutdown_s": s["parallel.pool_shutdown"],
            "parallel.wait_s": (
                self.latency_s - sum(b[2] for b in pooled) if pooled else 0.0
            ),
            "parallel.occupancy": (
                fanout_busy / (self.pool_workers * fanout_s)
                if self.pool_workers and fanout_s
                else 0.0
            ),
            "pilot.fanout_s": fanout_s,
            "pilot.unit_failures": self.unit_failures,
            "core.preprocess_s": s["core.preprocess"],
            "core.quantify_s": s["core.quantify"],
            "core.merge_s": s["core.merge"],
            "core.checkpoint.store_s": s["core.checkpoint.store"],
            "core.checkpoint.stores": n["core.checkpoint.stored"],
            "core.checkpoint.load_s": s["core.checkpoint.load"],
            "core.checkpoint.loads": loads,
            "core.checkpoint.hit_frac": (
                n["core.checkpoint.hit"] / loads if loads else 0.0
            ),
            "seq.readstore.encode_s": s["seq.readstore.encode"],
            "seq.readstore.encodes": n["seq.readstore.encode"],
            "core.driver_s": run_wall_s - self.toplevel_s,
        }
        for name in ("ray", "abyss", "velvet", "trinity"):
            out[f"assembly.{name}_busy_s"] = sum(
                b[2] for b in units if b[1] == name
            )
        return out


# -- wrappers ------------------------------------------------------------------


_ORIGINAL_RUN_WORKLOAD = executor.run_workload


def traced_run_workload(work, context=None):
    """``executor.run_workload`` with its busy time recorded; inside a
    pool worker it also spools that workload's records to the parent."""
    rec = _ACTIVE
    in_worker = os.getpid() != rec.parent_pid
    if in_worker:
        rec.start_worker_workload()
    t0 = time.perf_counter()
    try:
        return _ORIGINAL_RUN_WORKLOAD(work, context)
    finally:
        rec.note_busy(work, time.perf_counter() - t0)
        if in_worker:
            rec.spool()


def _wrap_submit(rec: Recorder, submit, started: weakref.WeakSet):
    def traced_submit(self, work, context=None):
        first = self not in started
        t0 = time.perf_counter()
        handle = submit(self, work, context)
        if first:
            started.add(self)
            rec.pool_workers = max(rec.pool_workers, self.max_workers)
            rec.add("parallel.pool_start", time.perf_counter() - t0)
        shard = isinstance(work, sweep.SpectrumShardWorkload)
        inner = handle.outcome
        pending = [True]

        def outcome():
            w0 = time.perf_counter()
            result = inner()
            w1 = time.perf_counter()
            if pending:
                pending.clear()
                rec.latency_s += w1 - t0
                if shard:
                    rec.add("assembly.spectra_wait", w1 - w0)
            return result

        handle.outcome = outcome
        return handle

    return traced_submit


def _wrap_shutdown(rec: Recorder, shutdown, started: weakref.WeakSet):
    timed = rec.wrap("parallel.pool_shutdown", shutdown)

    def traced_shutdown(self):
        if self not in started:
            return shutdown(self)
        started.discard(self)
        return timed(self)

    return traced_shutdown


def _wrap_unit_manager_run(rec: Recorder, run):
    fanout = rec.wrap("pilot.fanout", run)

    def traced_run(self, units=None):
        units_seen = list(units) if units is not None else list(self.units)
        is_fanout = any(
            u.description.stage == _ASSEMBLY_STAGE for u in units_seen
        )
        try:
            return (fanout if is_fanout else run)(self, units)
        finally:
            rec.unit_failures += sum(
                u.state is UnitState.FAILED for u in units_seen
            )

    return traced_run


def _wrap_checkpoint_load(rec: Recorder, load):
    timed = rec.wrap("core.checkpoint.load", load)

    def traced_load(self, key):
        record = timed(self, key)
        if record is not None:
            rec.calls["core.checkpoint.hit"] += 1
        return record

    return traced_load


def _wrap_checkpoint_store(rec: Recorder, store):
    timed = rec.wrap("core.checkpoint.store", store)

    def traced_store(self, key, record):
        written = timed(self, key, record)
        if written:
            rec.calls["core.checkpoint.stored"] += 1
        return written

    return traced_store


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def function(self, original, replacement) -> None:
        """Rebind every ``repro`` module name bound to ``original`` — the
        defining module and each ``from x import f`` site."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.attribute(module, attr, replacement)

    def attribute(self, owner, attr: str, replacement) -> None:
        had = attr in vars(owner)
        previous = vars(owner).get(attr)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, had, previous))

    def undo(self) -> None:
        while self._undo:
            owner, attr, had, previous = self._undo.pop()
            if had:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)


def _install(rec: Recorder, patches: _Patches) -> None:
    for layer, fn in (
        ("assembly.dbg.unitigs", dbg.extract_unitigs),
        ("assembly.cleanup", cleanup.clean_unitigs),
        ("assembly.spectra", sweep.build_spectra),
        ("assembly.spectra", sweep.submit_spectra_build),
        ("core.preprocess", preprocess),
        ("core.quantify", quantify),
        ("core.merge", merge_contigs),
    ):
        patches.function(fn, rec.wrap(layer, fn))
    patches.function(executor.run_workload, traced_run_workload)

    pending = sweep.PendingSpectraBuild
    patches.attribute(
        pending, "collect", rec.wrap("assembly.spectra", pending.collect)
    )
    proc = executor.ProcessExecutor
    started = weakref.WeakSet()  # executors whose pool is up
    patches.attribute(proc, "submit", _wrap_submit(rec, proc.submit, started))
    patches.attribute(
        proc, "shutdown", _wrap_shutdown(rec, proc.shutdown, started)
    )
    um = manager.UnitManager
    patches.attribute(um, "run", _wrap_unit_manager_run(rec, um.run))
    store = CheckpointStore
    for name, wrapper in (
        ("get_unit", _wrap_checkpoint_load),
        ("get_stage", _wrap_checkpoint_load),
        ("put_unit", _wrap_checkpoint_store),
        ("put_stage", _wrap_checkpoint_store),
    ):
        patches.attribute(store, name, wrapper(rec, getattr(store, name)))
    encode = vars(ReadStore)["from_reads"].__func__
    patches.attribute(
        ReadStore,
        "from_reads",
        classmethod(rec.wrap("seq.readstore.encode", encode)),
    )


@contextmanager
def tracing(spool_dir: Path):
    """Record layer times of the runs inside the block into a fresh
    :class:`Recorder`; worker spools are folded in on exit."""
    global _ACTIVE
    rec = Recorder(spool_dir)
    patches = _Patches()
    _ACTIVE = rec
    try:
        _install(rec, patches)
        yield rec
    finally:
        patches.undo()
        _ACTIVE = None
        rec.fold_spool()
