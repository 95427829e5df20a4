"""Self-tests of the benchmark itself (not run by the benchmark command).

Usage (from the root of a source checkout):

    python3 perfbench/selftest.py

1. The tracer sees every call.  One traced iteration of each workload on
   the default seed runs under a profile hook that counts every execution
   of each wrapped function's code, however it was reached.  The tracer's
   counts must equal the hook's; a wrapper that missed a by-name import
   shows up as a difference.  The per-iteration counts must also equal
   the ones recorded when the benchmark was defined (``DEFINED_COUNTS``);
   a change that alters how often a layer is called shows up there.
2. The correctness check can fail.  A run against a reference perturbed by
   1e-6 relative must fail every iteration (failed_frac = 1), and a report
   with no reference entry or no axiom rows must be refused.

Exits 0 when all of these hold.
"""

import argparse
import sys
from pathlib import Path

import run
import workloads
from tracer import Tracer

#: Exact per-iteration counts on the default seed when the benchmark was
#: defined: norm calls, transforms and the witness/grid/doubling calls.
DEFINED_COUNTS = {
    "kappa-1d": {"spaces.luxemburg_norm.calls": 18, "operators.fft.calls": 16,
                 "witness.make_witness.calls": 8,
                 "witness.mollification_residual.calls": 4,
                 "grid.ball_indicator.calls": 8},
    "axioms-dense": {"spaces.luxemburg_norm.calls": 1200, "operators.fft.calls": 0},
    "sector-2d": {"spaces.luxemburg_norm.calls": 42, "operators.fft.calls": 24,
                  "witness.make_witness.calls": 12,
                  "grid.ball_indicator.calls": 30,
                  "doubling.doubling_ratio.calls": 9},
}


def traced_iteration(workload: str, tmp: Path):
    """(tracer, {function key: calls seen by the profile hook})."""
    from whlab import cli
    tmp.mkdir(parents=True)
    cfgs = [(p.stem, cli.preflight(cli.load_config(p)))
            for p in workloads.make_configs(workload, 0, tmp)]
    reference = workloads.load_reference(workload, 0)
    no_probe = float  # the speed probe plays no part in call counts
    run.run_iteration(cli, workloads, cfgs, tmp / "out", reference, no_probe)  # warm-up
    tracer = Tracer()
    by_code = {fn.__code__: key for key, fn in tracer.originals.items()}
    seen = dict.fromkeys(tracer.originals, 0)

    def hook(frame, event, _arg):
        if event == "call":
            key = by_code.get(frame.f_code)
            if key is not None:
                seen[key] += 1

    tracer.install()
    sys.setprofile(hook)
    try:
        _, _, problems, _ = run.run_iteration(cli, workloads, cfgs, tmp / "out",
                                              reference, no_probe)
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    if problems:
        raise AssertionError(f"{workload}: traced iteration failed: {problems}")
    return tracer, seen


def test_tracer_sees_every_call(tmp: Path) -> list[str]:
    errors = []
    for workload, expected in DEFINED_COUNTS.items():
        tracer, seen = traced_iteration(workload, tmp / workload)
        for key, calls in seen.items():
            if tracer.calls(key) != calls:
                errors.append(f"{workload}: {key} traced {tracer.calls(key)} "
                              f"of {calls} calls")
        counts = tracer.iteration_metrics()
        for name, want in expected.items():
            if counts[name] != want:
                errors.append(f"{workload}: {name} = {counts[name]}, defined {want}")
        print(f"{workload}: " + ", ".join(f"{k} {counts[k]}" for k in expected))
    return errors


def test_check_can_fail(tmp: Path) -> list[str]:
    tmp.mkdir(parents=True)
    args = argparse.Namespace(workload="kappa-1d", seed=0, seconds=0.0, trace=0)
    reference = {name: {k: v * (1.0 + 1e-6) for k, v in values.items()}
                 for name, values in workloads.load_reference("kappa-1d", 0).items()}
    outcome = run.measure(args, tmp, reference=reference)
    frac = outcome["failed"] / outcome["attempted"]
    print(f"perturbed reference: failed_frac = {frac:g} "
          f"({outcome['failed']} of {outcome['attempted']})")
    return [] if frac == 1.0 else [f"perturbed reference gave failed_frac {frac}"]


def test_check_refuses_missing_data() -> list[str]:
    errors = []
    if not workloads.check("kappa_lb", {"kind": "kappa-lb", "status_ok": True}, None):
        errors.append("a kappa-lb report with no reference entry passed the check")
    if not workloads.check("space_check", {"kind": "space-check", "status_ok": True}, None):
        errors.append("a space-check report with no axiom rows passed the check")
    return errors


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    with workloads.scratch_dir("selftest-") as tmp:
        errors = (test_check_refuses_missing_data() + test_tracer_sees_every_call(tmp)
                  + test_check_can_fail(tmp / "fail"))
    for line in errors:
        print("FAIL " + line, file=sys.stderr)
    print("selftest " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
