"""The benchmark's per-layer tracer looks up library functions by name
(``perfbench/tracer.py``); renaming one of them breaks ``--trace 1``."""

import json
import textwrap
from pathlib import Path

from whlab import cli

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_finds_every_traced_function(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer

    tracer = Tracer()
    names = set(tracer.setup_metrics()) | set(tracer.iteration_metrics())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert names | {"trace.overhead_frac"} == {m["name"] for m in declared}


def test_tracer_counts_the_builders_and_renderers(tmp_path, monkeypatch):
    # the CLI looks each library function up when it calls it, so wrappers
    # installed after import see every call
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer

    path = tmp_path / "run.yaml"
    path.write_text(textwrap.dedent("""
        grid: {n: 1, half_width: 256.0, points: 8192}
        space:
          exponent: {kind: piecewise, left: 2.0, right: 2.5}
          weight: {kind: power, gamma: 0.1}
          domain: {kind: halfline}
        symbol: {kind: gaussian, sigma: 2.0}
        experiment: {kind: kappa-lb, rho: 2.0, theta: 0.25, lambda: 4.0, m: 2, y0: 1.0}
        """))
    tracer = Tracer()
    tracer.install()
    try:
        cli.run(cli.preflight(cli.load_config(path)))
    finally:
        tracer.uninstall()
    for key in ("spaces.step_exponent", "spaces.power_weight", "grid.half_line",
                "operators.gaussian_symbol", "reports.experiment_text",
                "reports.witness_csv", "reports.pairwise_csv"):
        assert tracer.calls(key) == 1, key
    # the two witnesses' sandwich norms read only their balls' windows
    assert tracer.calls("grid.ball_indicator") == 0
    assert tracer.calls("spaces.indicator_norm") == 4
    # each of the two witnesses is built and transformed by the public pair
    assert tracer.calls("witness.make_witness") == 2
    assert tracer.calls("witness.mollification_residual") == 2
