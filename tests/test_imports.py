"""A run imports only the layers its experiment kind runs.

Each test sets up and runs one small config in a fresh interpreter, through
``load_config``, ``preflight`` and ``run``, and reads which ``whlab`` modules
that interpreter imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIG = """
grid: {n: 1, half_width: 256.0, points: 8192}
space:
  exponent: {kind: constant, value: 2.0}
  weight: {kind: constant, value: 1.0}
  domain: {kind: halfline}
"""
SYMBOL = "symbol: {kind: gaussian, sigma: 2.0}\n"
FAMILY = "theta: 0.25, lambda: 4.0, m: 3, y0: 1.0"

RUN = """
import json, sys
from whlab import cli
artifacts, ok = cli.run(cli.preflight(cli.load_config(sys.argv[1])))
print(json.dumps([ok, sorted(m for m in sys.modules if m.startswith("whlab."))]))
"""


@pytest.mark.parametrize("blocks,imported,absent", [
    ("experiment: {kind: space-check, trials: 2}",
     {"spaces", "reports"}, {"witness", "operators", "doubling", "kernel"}),
    (f"experiment: {{kind: tau-scan, tau_list: [2.0, 1.5], {FAMILY}}}",
     {"doubling"}, {"witness", "kernel"}),
    (f"experiment: {{kind: doubling-scan, tau: 2.0, {FAMILY}}}",
     {"doubling"}, {"witness", "kernel"}),
    (SYMBOL + "experiment: {kind: norm-lb, rho: 2.0, delta_schedule: [0.5, 0.25]}",
     {"operators", "witness"}, {"doubling"}),
    (SYMBOL + f"experiment: {{kind: kappa-lb, rho: 2.0, {FAMILY}}}",
     {"operators", "witness", "doubling"}, set()),
], ids=["space-check", "tau-scan", "doubling-scan", "norm-lb", "kappa-lb"])
def test_a_run_imports_only_the_layers_of_its_kind(tmp_path, blocks, imported, absent):
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG + blocks + "\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", RUN, str(path)], env=env,
                          capture_output=True, text=True, check=True)
    ok, modules = json.loads(proc.stdout)
    layers = {name.removeprefix("whlab.") for name in modules}
    assert ok
    assert imported <= layers
    assert not layers & absent
