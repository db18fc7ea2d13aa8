"""fusionring benchmark: one workload per run, every metric printed by name and unit.

Usage, from the root of a checkout:

    python3 bench/run.py --workload s4_pipeline --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:

* ``pass_s``: mean wall time of a pass, after one untimed warm-up pass,
  over the passes that fit in ``--seconds`` (at least three);
* ``setup_s``: mean over fresh processes of importing fusionring and
  building the workload's inputs;
* ``cli_s``: mean wall time of the workload's CLI chain, each command a
  cold subprocess;

The three times are scaled to a reference machine speed measured during the
run (see ``speed.py``); the raw wall times are printed too.
* ``peak_rss_mb``: ``ru_maxrss`` of this process;
* ``success_rate``: oracle checks passed over checks attempted.

It also prints, unbounded, the sorted pass times and the highest pass-time
percentile with at least ten samples beyond it (when there are 11 passes).

``--trace 1`` wraps the package's public calls and ``Cyclotomic`` entry
points (see ``tracing.py``), alternates traced and untraced passes, and prints
the per-layer metrics: for each layer the median, over traced passes, of its
time or count in a pass (layers that only run while inputs are built are
read from the traced set-up).  Spans go to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_PASSES = 3
SETUP_REPEATS = 3
CLI_REPEATS = 3
TRACED_MIN_EACH = 2


def _metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _import_package():
    """Import fusionring from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "fusionring" / "__init__.py").is_file():
        sys.exit(f"bench: no fusionring package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import fusionring
    if Path(fusionring.__file__).resolve().parent != (SRC / "fusionring").resolve():
        sys.exit(f"bench: imported fusionring from {fusionring.__file__}, not {SRC}")
    import workloads
    return workloads


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_only(args) -> None:
    """Child process: time the import plus input building, print it as JSON."""
    start = perf_counter()
    workloads = _import_package()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    checks = workloads.Checks()
    workload.build(checks)
    elapsed = perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "attempted": checks.attempted,
                      "failed": checks.failed}))


def time_setup(args, checks) -> float | None:
    """One fresh set-up process; returns its import-plus-build time."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120)
    checks.expect(proc.returncode == 0, "set-up process exit code")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    checks.bulk(result["attempted"], result["failed"], "set-up checks")
    return result["setup_s"]


def run_pass(workload, checks) -> float:
    start = perf_counter()
    try:
        workload.run_pass(checks)
    except Exception:
        traceback.print_exc()
        checks.expect(False, f"{workload.name} pass raised")
    return perf_counter() - start


def tail(samples: list[float]) -> str:
    """The highest percentile of pass time with at least ten samples beyond it."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return f"undefined with {len(ordered)} passes (needs 11)"
    idx = len(ordered) - 11
    return f"p{100 * (idx + 1) / len(ordered):.1f} = {ordered[idx]:.4f} s over {len(ordered)} passes"


def time_cli(chain, checks) -> float:
    """One cold run of the CLI chain, one subprocess per command, checked."""
    total = 0.0
    for argv, verify in chain:
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "fusionring.cli", *argv],
                              cwd=ROOT, env=_child_env(), capture_output=True, timeout=120)
        total += perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        verify(proc.returncode, proc.stdout, checks)
    return total


def end_to_end(args, workloads, checks) -> dict[str, float]:
    import speed

    # One CPU for this process and its children, so that the reference
    # kernel runs where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.build(checks)
    workload.oracle()
    run_pass(workload, checks)  # warm-up: fills lazy caches

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=ROOT / ".bench_out"))
    try:
        for name, text in workload.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        chain = workload.cli_chain(workdir)
        # The set-up processes and CLI chains are spread evenly over the
        # run, between passes, so that every metric samples the same
        # stretch of machine load.
        timeline = speed.Timeline()
        counts = {"pass": 0, "setup": 0, "cli": 0}
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            if counts["setup"] < SETUP_REPEATS and (
                    elapsed >= counts["setup"] * args.seconds / SETUP_REPEATS
                    or elapsed >= args.seconds):
                kind, seconds = "setup", time_setup(args, checks)
            elif counts["cli"] < CLI_REPEATS and (
                    elapsed >= counts["cli"] * args.seconds / CLI_REPEATS
                    or elapsed >= args.seconds):
                kind, seconds = "cli", time_cli(chain, checks)
            elif elapsed < args.seconds or counts["pass"] < MIN_PASSES:
                kind, seconds = "pass", run_pass(workload, checks)
            else:
                break
            counts[kind] += 1
            if seconds is not None:
                timeline.record(kind, seconds)
    finally:
        shutil.rmtree(workdir)

    factor = timeline.speed_factor()

    def scaled_mean(kind):
        values = timeline.samples.get(kind)
        return statistics.fmean(values) * factor if values else 0.0

    for kind in counts:
        raw = sorted(timeline.samples.get(kind, []))
        print(f"# {kind} wall times (s): " + " ".join(f"{t:.3f}" for t in raw)
              + f"; mean {statistics.fmean(raw):.4f}" if raw else f"# no {kind} samples")
    print(f"# pass_s_tail (unbounded, wall): {tail(timeline.samples['pass'])}")
    print("# reference kernel (s): " + " ".join(f"{t:.4f}" for t in timeline.probes)
          + f"; speed factor {factor:.4f}")
    return {
        "pass_s": scaled_mean("pass"),
        "setup_s": scaled_mean("setup"),
        "cli_s": scaled_mean("cli"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": (checks.attempted - checks.failed) / max(checks.attempted, 1),
    }


def per_layer(args, workloads, checks) -> dict[str, float]:
    import tracing

    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    instrumentation.install()
    try:
        workload.build(checks)  # round 0: the traced set-up
    finally:
        instrumentation.uninstall()
    workload.oracle()
    run_pass(workload, checks)  # warm-up, untraced

    untraced, traced = [], []
    start = perf_counter()
    while not (perf_counter() - start >= args.seconds
               and min(len(untraced), len(traced)) >= TRACED_MIN_EACH):
        untraced.append(run_pass(workload, checks))
        tracer.round = len(traced) + 1
        instrumentation.install()
        try:
            traced.append(run_pass(workload, checks))
        finally:
            instrumentation.uninstall()

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    totals = tracer.round_totals()
    for rnd in totals.values():
        if rnd.get("verlinde.tensor_s"):
            rnd["verlinde.coeffs_per_s"] = rnd["verlinde.coeffs"] / rnd["verlinde.tensor_s"]
    pass_rounds = [totals.get(r, {}) for r in range(1, len(traced) + 1)]
    counts_differ = []
    metrics = {}
    units = _metric_units("per_layer")
    for name in units:
        if name == "trace.overhead_s":
            continue
        values = [rnd[name] for rnd in pass_rounds if name in rnd]
        if not values and name in totals.get(0, {}):
            values = [totals[0][name]]
        if not values:
            metrics[name] = 0
        elif units[name] == "count":
            metrics[name] = statistics.median_low(values)
        else:
            metrics[name] = statistics.median(values)
        if units[name] == "count" and len(set(values)) > 1:
            counts_differ.append(name)
    if counts_differ:
        print(f"# counts differ between traced passes: {counts_differ}")
    if instrumentation.missing:
        print(f"# not traced, no longer in the package: {instrumentation.missing}")
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print(f"# traced passes: {len(traced)}, untraced passes: {len(untraced)}, "
          f"untraced pass_s {statistics.median(untraced):.4f}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["s4_pipeline", "lattice_validate", "su2_tensor"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_only(args)
        return 0

    workloads = _import_package()
    checks = workloads.Checks()
    print(f"# workload {args.workload} seed {args.seed}"
          f"{'' if workloads.WORKLOADS[args.workload].seeded else ' (seed unused)'}; "
          f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {metadata.version('numpy')}")
    if args.trace:
        metrics = per_layer(args, workloads, checks)
        units = _metric_units("per_layer")
    else:
        metrics = end_to_end(args, workloads, checks)
        units = _metric_units("end_to_end")
    if set(metrics) != set(units):
        sys.exit(f"bench: computed metrics {sorted(metrics)} do not match BENCHMARK.json")
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"# checks attempted {checks.attempted}, failed {checks.failed}")
    for message in checks.messages:
        print(f"# FAILED {message}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
