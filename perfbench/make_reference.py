"""Regenerate ``reference.json``: the certified numbers of every symbol variant.

Usage (from the root of a source checkout):

    python3 perfbench/make_reference.py

The reference pins the certified bounds, ``eps_obs`` and the doubling
estimates (``D_est``/``S_est``) that the library produced when the
benchmark was defined, for all ``workloads.VARIANTS`` variants.  Regenerate
it only when a change to the library is meant to move those numbers, and
say so in the change.
"""

import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from whlab import cli

    table = {}
    with workloads.scratch_dir("reference-") as tmp:
        for workload in ("kappa-1d", "sector-2d"):
            per_variant = table[workload] = {}
            for variant in range(workloads.VARIANTS):
                entry = {}
                for path in workloads.make_configs(workload, variant, tmp):
                    cfg = cli.preflight(cli.load_config(path))
                    artifacts, ok = cli.run(cfg)
                    cli.emit(artifacts, cfg.formats, tmp / path.stem)
                    got = workloads.read_outputs(tmp / path.stem)
                    if not (ok and got["status_ok"]):
                        print(f"{workload} variant {variant}: {path.stem} "
                              "ledger FAILED", file=sys.stderr)
                        return 1
                    entry[path.stem] = {k: v for k, v in got.items()
                                        if isinstance(v, float)}
                per_variant[str(variant)] = entry
                print(f"{workload} variant {variant}: "
                      f"{workloads.claim_ratios(entry)}", flush=True)
    workloads.REFERENCE_PATH.write_text(
        json.dumps({"workloads": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
