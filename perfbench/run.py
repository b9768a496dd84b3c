"""End-to-end benchmark of the pilot pipeline, one workload per call.

Run from the repository root:

    python3 perfbench/run.py --workload ckpt_resume --seed 0 --trace 0

Every timed figure is host wall time of a real ``RnnotatorPipeline.run``
(default ``CostModel``) on input synthesized from ``--seed``, or of a
cold interpreter that imports ``repro.core.rnnotator`` and constructs
the pipeline (``setup_s``).  This launcher imports nothing from the
program; it starts the measuring process (measure.py), which makes, for
``ckpt_resume``, an untimed seeding run that fills the checkpoint
directory the timed runs resume from, then rounds of a set-up probe, a
first run of a fresh process and a batch of warm runs for ``--seconds``
(with ``--trace 1``: untraced and traced batches in turn, after one
``-X importtime`` set-up probe for the per-package split of set-up).

Every time metric is in reference-host seconds: a fixed host-speed
probe runs before and after each sample, and the sample's host seconds
are scaled by ``hostspeed.REFERENCE_S`` over the mean of those two
probes, which takes out most of the drift of the shared host's speed.
The report lines give the raw host seconds too.

Every run's merged transcripts, total TTC and total cost are checked:
all runs must agree, a resume must equal its seeding run and be a
complete resume, and at the reference seed the outputs must equal
``reference.json``.  A run that raised or failed the check counts in
``failed``.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report.  Exit status 2 means the program is missing or a
phase crashed, and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


class Launcher:
    def __init__(self, root: Path, work: Path) -> None:
        self.work = work
        tmp = work / "tmp"
        tmp.mkdir(parents=True)
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [str(root / "src"), str(BENCH_DIR)]
                + [p for p in [os.environ.get("PYTHONPATH")] if p]
            ),
            TMPDIR=str(tmp),
        )
        # Import costs as users pay them: with the bytecode cache.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def child(self, argv: list[str]) -> None:
        """Run a child to completion (its whole process group is killed
        on timeout)."""
        proc = subprocess.Popen(
            [sys.executable, *argv],
            env=self.env,
            stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"child timed out: {argv[:3]}") from None
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}: {argv[:3]}")

    def measure(self, args) -> dict:
        out = self.work / "measure.json"
        argv = [
            str(BENCH_DIR / "measure.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--work", str(self.work),
            "--out", str(out),
        ]
        self.child(argv + (["--tiny"] if args.tiny else []))
        return json.loads(out.read_text())


def outputs(run: dict) -> tuple | None:
    if not run["ok"]:
        return None
    return (run["digest"], run["total_ttc"], run["total_cost"])


def check(runs: list[dict], expected: tuple | None, resumes: bool) -> None:
    """Mark each run ``failed`` unless it produced ``expected``."""
    for run in runs:
        run["failed"] = (
            expected is None
            or outputs(run) != expected
            or (resumes and not run["complete_resume"])
        )


def expected_outputs(args, runs, seed_run, reference) -> tuple | None:
    if args.seed == reference["seed"]:
        ref = reference.get("tiny" if args.tiny else "full", {}).get(args.workload)
        if ref is not None:
            return (ref["digest"], ref["total_ttc"], ref["total_cost"])
    if seed_run is not None:
        return outputs(seed_run)
    seen = Counter(o for o in map(outputs, runs) if o is not None)
    return seen.most_common(1)[0][0] if seen else None


def samples(runs: list[dict], kind: str) -> list[dict]:
    """The ``kind`` runs that passed the check (all of them if none did)."""
    of_kind = [r for r in runs if r["kind"] == kind]
    return [r for r in of_kind if not r["failed"]] or of_kind


def median_of(
    runs: list[dict], key: str, kind: str, scaled: bool = True
) -> tuple[float, int]:
    """Median over the ``kind`` samples of ``key`` per run, in
    reference-host seconds unless not ``scaled``, and the sample count.
    A batch of warm runs is one sample, its mean run; a first run is a
    sample by itself."""
    batches = defaultdict(list)
    for i, run in enumerate(samples(runs, kind)):
        value = run[key] * (run["scale"] if scaled else 1.0)
        batches[run.get("batch", -1 - i)].append(value)
    values = [statistics.fmean(b) for b in batches.values()]
    return statistics.median(values), len(values)


def end_to_end(runs, setup, peak_rss_mb) -> tuple[dict, dict]:
    """The end-to-end values, and per metric its sample count and, for
    a time, its raw value in host seconds."""
    run_s, n_warm = median_of(runs, "wall_s", "warm")
    first_run_s, n_first = median_of(runs, "wall_s", "first")
    values = {
        "run_s": run_s,
        "first_run_s": first_run_s,
        "setup_s": statistics.median(s["wall_s"] * s["scale"] for s in setup),
        "cpu_s": median_of(runs, "cpu_s", "warm")[0],
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "run_s": median_of(runs, "wall_s", "warm", scaled=False)[0],
        "first_run_s": median_of(runs, "wall_s", "first", scaled=False)[0],
        "setup_s": statistics.median(s["wall_s"] for s in setup),
        "cpu_s": median_of(runs, "cpu_s", "warm", scaled=False)[0],
    }
    samples = {
        "run_s": f"median of {n_warm} batches of warm runs",
        "first_run_s": f"median of {n_first} first runs in fresh processes",
        "setup_s": f"median of {len(setup)} cold processes",
        "cpu_s": f"median of {n_warm} batches, parent + reaped workers",
        "peak_rss_mb": "max of the measuring process and its largest child",
    }
    for name, s in raw.items():
        samples[name] += f"; {s:.4f} host s"
    return values, samples


def per_layer(runs, imports, probes) -> dict:
    traced = [r["layers"] for r in samples(runs, "traced")]
    values = {
        name: statistics.median(t[name] for t in traced) for name in traced[0]
    }
    untraced, _ = median_of(runs, "wall_s", "warm")
    with_trace, _ = median_of(runs, "wall_s", "traced")
    values["obs.trace_overhead_frac"] = with_trace / untraced - 1
    values.update(imports)
    values["host.probe_s"] = statistics.median(probes)
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument(
        "--seconds", type=float, help="warm-run window (default: run_seconds)"
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--tiny", action="store_true", help="500-fragment inputs (self-test)"
    )
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "core" / "rnnotator.py").is_file():
        print(f"no program under {root / 'src'}; run from the repo root",
              file=sys.stderr)
        return 2
    # Workload names and metric units come from the benchmark definition.
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    work = root / ".perfbench_work" / str(os.getpid())
    try:
        launcher = Launcher(root, work)
        measured = launcher.measure(args)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    runs, seed_run = measured["runs"], measured["seed_run"]
    setup, probes = measured["setup"], measured["probes"]
    expected = expected_outputs(args, runs, seed_run, reference)
    check(runs, expected, resumes=seed_run is not None)
    failed = sum(r["failed"] for r in runs)

    print(f"workload {args.workload} seed {args.seed}"
          f"{' (tiny)' if args.tiny else ''}: {len(runs)} runs, {failed} failed")
    seen = Counter(o for o in map(outputs, runs) if o is not None)
    for label, out in (("expected", expected),
                       ("most runs'", seen.most_common(1)[0][0] if seen else None)):
        if out is not None:
            print(f"{label} outputs: digest {out[0]} total_ttc {out[1]!r} "
                  f"total_cost {out[2]!r}")
    for kind in ("first", "warm", "traced"):
        walls = [f"{r['wall_s']:.3f}" for r in runs if r["kind"] == kind]
        if walls:
            print(f"{kind} run walls (s): {' '.join(walls)}")
    if setup:
        walls = " ".join(f"{s['wall_s']:.3f}" for s in setup)
        print(f"setup probe walls (s): {walls}")
    print(f"host-speed probes (s): {' '.join(f'{t:.3f}' for t in probes)}")
    if seed_run is not None and not seed_run["ok"]:
        print(f"  seeding run raised: {seed_run['error']}")
    for run in runs:
        if run["failed"]:
            print(f"  failed {run['kind']} run: "
                  f"{run.get('error') or 'outputs differ from expected'}")
    print(f"  {'failed_frac':28s} {failed / len(runs):12.4f} ratio  "
          f"({failed} of {len(runs)} runs)")
    if args.trace:
        values = per_layer(runs, measured["imports"], probes)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, unit in units.items():
            print(f"  {name:28s} {values[name]:12.4f} {unit}")
    else:
        values, samples = end_to_end(runs, setup, measured["peak_rss_mb"])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, unit in units.items():
            print(f"  {name:28s} {values[name]:12.4f} {unit:5s}  ({samples[name]})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
