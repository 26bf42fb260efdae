"""The embtens benchmark: one command, one seed, three closed-loop workloads.

    python3 bench/run.py --workload complex-ladder --seed 1 --seconds 50 --trace 0

``BENCHMARK.json`` times ``complex-ladder`` and ``cli-batch``, which
between them reach every layer.  ``verify-stream`` runs the same way but
is left out of the timed set, so that the two timed runs can be long
enough to average over the speed swings of a shared host.

Each workload is a fixed job list made from the seed.  A run repeats the
list in passes, one job at a time in one process (``cli-batch`` runs one
child process at a time), for about ``--seconds`` seconds, then checks
every job's output outside the timed region.

With ``--trace 0`` the run prints the end-to-end metrics: set-up time,
the median pass time, the median and tail job times, peak memory and
the failed share.  With ``--trace 1`` the run makes one untraced and one
traced pass and prints the per-layer metrics from spans recorded around
the calls into each ``embtens`` module (see ``benchtrace.py``); the spans
are written to ``.bench_work/``.  The last line of standard output is
always one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--smoke`` shrinks every workload to its smallest rung; the self-test
uses it.  ``--setup-only`` makes the inputs and exits; the timed run
starts it several times to measure set-up in fresh processes.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
MIN_PASSES = 2  # a median and a tail need more than one pass of the slowest workload


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("complex-ladder", "verify-stream", "cli-batch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="smallest rung only, one pass")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def checkout_ready() -> str | None:
    """Why the program under test cannot be run from this checkout, if it cannot."""
    for need in ("src/embtens/__init__.py", "tests/oracles.py"):
        if not (ROOT / need).is_file():
            return f"{need} is missing under {ROOT}"
    return None


def run_pass(workload):
    """One pass over the job list: (wall seconds, per-job seconds, outcomes)."""
    from workloads import JobError

    workload.reset()
    times, outcomes = [], []
    start = perf_counter()
    for i, job in enumerate(workload.jobs):
        workload.set_job(i)
        t0 = perf_counter()
        try:
            out = workload.run_job(job)
        except Exception as exc:  # a job that raised counts as failed, never stops the run
            out = JobError(f"{type(exc).__name__}: {exc}")
        times.append(perf_counter() - t0)
        outcomes.append(out)
    return perf_counter() - start, times, outcomes


def tail(times):
    """The highest per-job percentile with at least ten jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 11) / (n - 1)


def fresh_setup(args, workdir: Path) -> float:
    """Set-up time of one fresh process: spawn to inputs made and warmed up."""
    from workloads import child_env, spawn

    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    code, wall, _ = spawn(argv, os.devnull, workdir / "setup.err", child_env())
    if code != 0:
        raise RuntimeError("set-up failed: " + (workdir / "setup.err").read_text())
    return wall


def import_seconds(args, workdir: Path) -> float:
    """Fresh `import embtens.cli` minus a bare interpreter, median of repeats."""
    from workloads import child_env, spawn

    bare, full = [], []
    for _ in range(1 if args.smoke else IMPORT_REPEATS):
        for code_text, into in (("pass", bare), ("import embtens.cli", full)):
            code, wall, _ = spawn([sys.executable, "-c", code_text], os.devnull,
                                  workdir / "import.err", child_env())
            if code != 0:
                raise RuntimeError("import failed: " + (workdir / "import.err").read_text())
            into.append(wall)
    return statistics.median(full) - statistics.median(bare)


def layer_metrics(data, traced_wall, untraced_wall, import_s, process_s):
    from benchtrace import LAYERS, layer_totals

    spans, c = data["spans"], data["counters"]
    totals = layer_totals(spans)
    m = {}
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.calls"] = (totals["calls"][layer], "count")
            m[f"{layer}.self_s"] = (totals["self_s"][layer], "s")
    entries = c.get("cohomology.entries", 0)
    m.update({
        "linalg.max_coeff_bits": (c.get("linalg.max_coeff_bits", 0), "bits"),
        "cohomology.entries": (entries, "count"),
        "cohomology.nnz": (c.get("cohomology.nnz", 0), "count"),
        "cohomology.density": (c.get("cohomology.nnz", 0) / entries if entries else 0.0, "ratio"),
        "cohomology.rebuilds": (c.get("cohomology.assembled", 0) - c.get("cohomology.distinct", 0),
                                "count"),
        "tensors.cache_hits": (c.get("tensors.cache_hits", 0), "count"),
        "tensors.cache_misses": (c.get("tensors.cache_misses", 0), "count"),
        "tensors.cache_entries": (c.get("tensors.cache_entries", 0), "count"),
        "graded.entries": (c.get("graded.entries", 0), "count"),
        "graded.nnz": (c.get("graded.nnz", 0), "count"),
        "workspace.bytes_in": (c.get("workspace.bytes_in", 0), "B"),
        "workspace.bytes_out": (c.get("workspace.bytes_out", 0), "B"),
        "cli.import_s": (import_s, "s"),
        "cli.process_s": (process_s, "s"),
        "cli.self_s": (totals["self_s"]["cli"], "s"),
        "trace.unattributed_share": (max(0.0, traced_wall - totals["covered_s"]) / traced_wall, "ratio"),
        "trace.overhead": (traced_wall / untraced_wall, "ratio"),
    })
    return m


def measure(args, workdir: Path) -> dict:
    import workloads

    setups = []
    setup_repeats = 1 if args.smoke else SETUP_REPEATS
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    passes = []
    failed = unexpected = 0
    notes = []

    def checked_pass():
        """Run one pass, then check its outputs outside the timed region and drop them."""
        nonlocal failed, unexpected
        wall, times, outcomes = run_pass(workload)
        for i, problem in enumerate(workload.check_pass(outcomes)):
            if problem is None:
                continue
            failed += 1
            unexpected += not workload.known_defect(i)
            note = f"FAILED {workload.job_name(workload.jobs[i])}: {problem}"
            if note not in notes:
                notes.append(note)
        passes.append((wall, times))

    if args.trace:
        checked_pass()
        with workload.tracing():
            checked_pass()
        trace_data = workload.trace_data()
    else:
        # The fresh set-ups go between the passes, so that their median
        # samples the host over the whole run, as the passes do.
        while True:
            if len(setups) < setup_repeats:
                setups.append(fresh_setup(args, workdir))
            checked_pass()
            walls = [p[0] for p in passes]
            if args.smoke or len(passes) >= MIN_PASSES and \
                    sum(walls) + statistics.median(walls) > args.seconds:
                break
        while len(setups) < setup_repeats:
            setups.append(fresh_setup(args, workdir))
    peak_rss_kb = workload.peak_rss_kb()
    times = [t for _, ts in passes for t in ts]
    attempted = len(times)

    if args.trace:
        # Only cli-batch starts CLI processes; the import cost is the package's own.
        process_s = statistics.median(passes[0][1]) if args.workload == "cli-batch" else 0.0
        metrics = layer_metrics(trace_data, passes[1][0], passes[0][0],
                                import_seconds(args, workdir), process_s)
        name = f"trace-{args.workload}-seed{args.seed}.json"
        trace_path = workdir.parent / name
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "wall_s": passes[1][0], **trace_data}), encoding="utf-8")
        notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        tail_s, tail_pct = tail(times)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(p[0] for p in passes), "s"),
            "job_p50_s": (statistics.median(times), "s"),
            "job_tail_s": (tail_s, "s"),
            "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        }
        notes += [f"setup_s: median of {len(setups)} fresh-process set-ups",
                  f"wall_s: median of {len(passes)} passes over {len(workload.jobs)} jobs "
                  f"({', '.join(f'{p[0]:.2f}' for p in passes)} s)",
                  f"job_tail_s: p{tail_pct:.1f} of {attempted} jobs",
                  f"failed_frac: {failed / attempted:.4f} ({failed} of {attempted} jobs)"]
    return {"workload": args.workload, "seed": args.seed, "metrics": metrics, "notes": notes,
            "attempted": attempted, "failed": failed, "correct": unexpected == 0}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    problem = checkout_ready()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            import workloads
            workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
            return 0
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in result["notes"]:
        print(note)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:28s} {value:>14.6g} {unit}")
    print(f"{result['workload']} seed {result['seed']}: {result['attempted']} jobs, "
          f"{result['failed']} failed, correct={result['correct']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
