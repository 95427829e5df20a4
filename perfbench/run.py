"""whlab benchmark: wall time from config to certified report.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload kappa-1d --seed 0 --seconds 30 --trace 0

Workloads are listed in ``workloads.WORKLOADS`` and explained in
``perfbench/README.md``.  One run is a closed loop in this single process:
the configs are set up, one warm-up iteration fills lazy caches (such as
``operators._alternating``), and then iterations of ``cli.run`` +
``cli.emit`` over every config follow back to back for ``--seconds``.
Every iteration's emitted files are checked against ``reference.json``; a
failed iteration is counted and the run goes on.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median iteration
wall time), ``setup_s`` (median wall time of import + ``load_config`` +
``preflight`` in fresh processes, one per config, summed over the configs)
and ``peak_rss_mb`` (``ru_maxrss`` of a fresh process that sets up, runs
and emits one config, the largest over the configs).  Times are scaled to
reference machine speed by ``speed.SpeedProbe``; metric units come from
``BENCHMARK.json``.  ``--trace 1``
alternates untraced and traced iterations and reports the per-layer
metrics of ``tracer.Tracer`` plus ``trace.overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh-process set-ups per config and run; set-up is reported as a median.
SETUP_REPS = 5
SETUP_TIMEOUT_S = 120
#: Speed-probe calls before each set-up round and after each config run.
PROBES_PER_GAP = 3
#: glibc mmap threshold of the process that measures ``peak_rss_mb``.  The
#: adaptive default moves arrays between mmap and the heap from run to run,
#: which moved the 2-D peak by a whole array (2 MiB) between runs of one
#: config; a fixed threshold returns every freed array at once, so the
#: peak is the largest live footprint.
MMAP_THRESHOLD = 128 * 1024


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def listed_metrics() -> dict:
    """{"end_to_end" or "per_layer": {metric name: unit}} from ``BENCHMARK.json``,
    the one place where the metrics and their units are defined."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def cli_process(path: Path, trace: int, run_dir: Path | None = None):
    """Run ``cli_process.py`` on one config; (its JSON line, its exit code)."""
    command = [sys.executable, str(HERE / "cli_process.py"),
               "--config", str(path), "--trace", str(trace)]
    env = None
    if run_dir is not None:
        command += ["--run-dir", str(run_dir)]
        env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": str(MMAP_THRESHOLD)}
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                          env=env, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr, end="")
    if not proc.stdout.strip():
        raise RuntimeError(f"cli_process.py printed nothing for {path.name}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.returncode


def setup_rounds(paths, trace: int, probe) -> list[tuple[dict, list]]:
    """``SETUP_REPS`` rounds of setting up every config, each config in its
    own fresh process.  Per round: the numbers summed over the configs and
    the speed-probe times taken right before the round."""
    rounds = []
    for _ in range(SETUP_REPS):
        speed = [probe() for _ in range(PROBES_PER_GAP)]
        total = {}
        for path in paths:
            numbers, code = cli_process(path, trace)
            if code != 0:
                raise RuntimeError(f"setting up {path.name} failed")
            for key, value in numbers.items():
                total[key] = total.get(key, 0.0) + value
        rounds.append((total, speed))
    return rounds


def check_outputs(workloads, names, out_root: Path, reference: dict):
    """(problems, {config name: parsed outputs}) of the emitted files."""
    problems, results = [], {}
    for name in names:
        try:
            results[name] = workloads.read_outputs(out_root / name)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{name}: unreadable outputs: {exc!r}")
            continue
        problems += workloads.check(name, results[name], reference.get(name))
    return problems, results


def fresh_run(workloads, paths, out_root: Path, reference: dict):
    """Set up, run and emit every config once, each in a fresh process as a
    CLI user would, and check the outputs.  Returns (largest peak resident
    memory in MiB, problems).  The speed probe's and the closed loop's
    arrays live in this process, so they do not count."""
    peak, problems = 0.0, []
    for path in paths:
        numbers, code = cli_process(path, trace=0, run_dir=out_root / path.stem)
        peak = max(peak, numbers["peak_rss_mb"])
        if code != 0:
            problems.append(f"{path.stem}: the run raised or its ledger failed")
    names = [p.stem for p in paths]
    return peak, problems + check_outputs(workloads, names, out_root, reference)[0]


def run_iteration(cli, workloads, cfgs, out_root: Path, reference: dict, probe):
    """One closed-loop iteration: run + emit of every config, then the check.

    The speed probe runs after each config, outside the timed spans.
    Returns (wall seconds of run + emit, probe times, problems, results).
    """
    for name, _ in cfgs:
        shutil.rmtree(out_root / name, ignore_errors=True)
    elapsed, speed, verdicts = 0.0, [], []
    try:
        for name, cfg in cfgs:
            t0 = perf_counter()
            try:
                artifacts, ok = cli.run(cfg)
                cli.emit(artifacts, cfg.formats, out_root / name)
            finally:
                elapsed += perf_counter() - t0
                speed += [probe() for _ in range(PROBES_PER_GAP)]
            verdicts.append((name, ok))
    except Exception:  # an iteration that raises is a failed iteration
        return elapsed, speed, [traceback.format_exc()], {}
    problems, results = check_outputs(workloads, [name for name, _ in cfgs],
                                      out_root, reference)
    problems += [f"{name}: cli.run reported a failed ledger"
                 for name, ok in verdicts if not ok]
    return elapsed, speed, problems, results


def commit_id():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def measure(args, tmp: Path, reference=None) -> dict:
    """Run one workload; returns metrics, run info, tallies and claim ratios."""
    from whlab import cli
    import numpy
    import workloads
    from speed import REFERENCE_S, SpeedProbe
    from tracer import Tracer

    listed = listed_metrics()
    units = {**listed["end_to_end"], **listed["per_layer"]}

    def at_reference_speed(sample: dict, speed: list) -> dict:
        """Scale the times of one sample by the probe times taken beside it."""
        scale = REFERENCE_S / statistics.median(speed)
        return {k: v * scale if units[k] == "s" else v for k, v in sample.items()}

    def median_of(rows: list, key: str) -> float:
        return statistics.median(row[key] for row in rows)

    paths = workloads.make_configs(args.workload, args.seed, tmp)
    if reference is None:
        reference = workloads.load_reference(args.workload, args.seed)
    probe = SpeedProbe()
    probe()
    rounds = setup_rounds(paths, args.trace, probe)
    cfgs = [(p.stem, cli.preflight(cli.load_config(p))) for p in paths]
    out_root = tmp / "out"
    tracer = Tracer() if args.trace else None

    attempted = failed = 0
    if tracer is None:  # the fresh-process run counts as one checked attempt
        peak_rss_mb, problems = fresh_run(workloads, paths, tmp / "fresh", reference)
        attempted += 1
        if problems:
            failed += 1
            print("\n".join(["fresh-process run failed:"] + problems), file=sys.stderr)
    iterations = {False: [], True: []}  # (sample, probe times) per timed iteration
    results = {}

    def attempt(traced: bool, timed: bool):
        nonlocal attempted, failed, results
        if traced:
            tracer.reset()
            tracer.install()
        try:
            elapsed, speed, problems, got = run_iteration(
                cli, workloads, cfgs, out_root, reference, probe)
        finally:
            if traced:
                tracer.uninstall()
        attempted += 1
        if problems:
            failed += 1
            print("\n".join(["iteration failed:"] + problems), file=sys.stderr)
        results = got or results
        if timed:
            sample = {"run_s": elapsed}
            if traced:
                sample.update(tracer.iteration_metrics())
            iterations[traced].append((sample, speed))

    attempt(traced=False, timed=False)  # warm-up
    start = perf_counter()
    while True:
        attempt(traced=False, timed=True)
        if tracer is not None:
            attempt(traced=True, timed=True)
        # Stop when one more round would end nearer past --seconds than
        # stopping now falls short of it, so a run measures about --seconds.
        per_round = sum(v[-1][0]["run_s"] for v in iterations.values() if v)
        if perf_counter() - start + 0.5 * per_round >= args.seconds:
            break

    untraced = [at_reference_speed(*it) for it in iterations[False]]
    setups = [at_reference_speed(*r) for r in rounds]
    if tracer is None:
        metrics = {
            "run_s": median_of(untraced, "run_s"),
            "setup_s": median_of(setups, "setup_s"),
            "peak_rss_mb": peak_rss_mb,
        }
        samples = {"run_s": len(untraced), "setup_s": len(setups), "peak_rss_mb": 1}
    else:
        traced = [at_reference_speed(*it) for it in iterations[True]]
        metrics = {k: median_of(traced, k) for k in traced[0] if k != "run_s"}
        samples = dict.fromkeys(metrics, len(traced))
        for key in setups[0]:
            if key != "setup_s":
                metrics[key] = median_of(setups, key)
                samples[key] = len(setups)
        # Each traced iteration against the untraced one just before it.
        metrics["trace.overhead_frac"] = statistics.median(
            t["run_s"] / u["run_s"] - 1.0 for u, t in zip(untraced, traced))
        samples["trace.overhead_frac"] = len(traced)

    wanted = set(listed["per_layer" if args.trace else "end_to_end"])
    if set(metrics) != wanted:
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ wanted)} are measured "
                           "but not listed in BENCHMARK.json, or listed but not measured")
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commit": commit_id(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "samples": samples,
        "wall_run_s": statistics.median(s["run_s"] for s, _ in iterations[False]),
        "wall_setup_s": statistics.median(s["setup_s"] for s, _ in rounds),
        "probe_run_s": statistics.median(
            t for _, speed in iterations[False] for t in speed),
        "probe_setup_s": statistics.median(t for _, speed in rounds for t in speed),
        "probe_reference_s": REFERENCE_S,
    }
    return {"info": info, "metrics": {k: (v, units[k]) for k, v in metrics.items()},
            "attempted": attempted, "failed": failed,
            "ratios": workloads.claim_ratios(results)}


def report(outcome: dict) -> None:
    info = outcome["info"]
    print("run-info " + json.dumps(info, sort_keys=True))
    samples = info["samples"]
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{name:42s} {value:>16.6g} {unit:6s} (n={samples[name]})")
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"{'failed_frac':42s} {failed / attempted:>16.6g} {'ratio':6s} "
          f"({failed} failed of {attempted} attempted)")
    for name in ("norm_lb_ratio", "kappa_lb_ratio"):
        value = outcome["ratios"].get(name)
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:42s} {text:>16s} {'ratio':6s} (certified / paper target)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in outcome["metrics"].items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    # One thread of work: numpy's FFT is single-threaded; pin any BLAS pool
    # too, before numpy is imported (the set-up processes inherit this).
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "whlab" / "cli.py").is_file():
        print(f"error: {ROOT} holds no whlab source tree (src/whlab)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with workloads.scratch_dir(f"{args.workload}-") as tmp:
        outcome = measure(args, tmp)
    report(outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
