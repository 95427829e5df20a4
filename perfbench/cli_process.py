"""One CLI invocation of one config in a fresh process.

Usage: python3 perfbench/cli_process.py --config PATH [--trace 0|1] [--run-dir DIR]

Prints one JSON line.  ``setup_s`` is the wall time of importing
``whlab.cli`` plus ``load_config`` and ``preflight``: everything a CLI user
pays before ``run``, including lazy imports and caches that a long-lived
process would fill only once.  numpy and PyYAML are imported before the
clock starts, because the library cannot change their cost.  With
``--trace 1`` the per-layer set-up numbers are added.  With ``--run-dir``
the config is then run and emitted into DIR, and ``peak_rss_mb`` is the
high-water resident memory of the whole invocation; the process exits 1
when the run raises or its ledger fails.
"""

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy  # noqa: F401  (third-party import cost stays outside the timing)
import yaml  # noqa: F401

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    from whlab import cli
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        t0 = perf_counter()
    cfg = cli.preflight(cli.load_config(args.config))
    result = {"setup_s": perf_counter() - t0}
    if args.trace:
        tracer.uninstall()
        result.update(tracer.setup_metrics())
    ok = True
    if args.run_dir:
        try:
            artifacts, ok = cli.run(cfg)
            cli.emit(artifacts, cfg.formats, Path(args.run_dir))
        except Exception:  # reported through the exit code, after the JSON line
            traceback.print_exc()
            ok = False
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
