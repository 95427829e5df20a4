"""The benchmark's per-layer tracer looks up library functions by name
(``perfbench/tracer.py``); renaming one of them breaks ``--trace 1``."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_finds_every_traced_function(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer

    tracer = Tracer()
    names = set(tracer.setup_metrics()) | set(tracer.iteration_metrics())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert names | {"trace.overhead_frac"} == {m["name"] for m in declared}
