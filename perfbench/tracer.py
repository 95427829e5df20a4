"""Per-layer tracing from outside the library.

The tracer replaces every public function of the layer modules with a
timing wrapper, at every module attribute that binds it: ``witness``,
``doubling`` and ``operators`` import ``luxemburg_norm``, ``fourier`` and
others by name, so patching only the defining module would miss their
calls.  Nothing under ``src/`` is changed; ``uninstall`` restores every
binding.

Each wrapped call is a span.  Its self time is its duration minus the
durations of the wrapped calls it contains.  Probes that count work (grid
nodes, support, FFT sizes) run before the span opens and their time is
charged to no layer, so they inflate only ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from time import perf_counter

import numpy as np

LAYERS = ("grid", "spaces", "doubling", "operators", "witness", "reports", "cli")

FIELD_BUILDERS = ("spaces.constant_exponent", "spaces.step_exponent",
                  "spaces.exponent_from_values", "spaces.constant_weight",
                  "spaces.power_weight", "spaces.weight_from_values")
SYMBOL_BUILDERS = ("operators.constant_symbol", "operators.gaussian_symbol",
                   "operators.smoothed_step_symbol", "operators.symbol_from_values",
                   "operators.symbol_from_function")
DOMAIN_BUILDERS = ("grid.make_grid", "grid.full_space", "grid.half_line",
                   "grid.sector", "grid.explicit_mask")
TRANSFORMS = ("operators.fourier", "operators.inverse_fourier")
EXPERIMENTS = ("witness.norm_lowerbound_experiment", "witness.kuratowski_experiment")


def _norm_probe(counts, f, space, *_, **__):
    counts["norm_nodes"] += f.grid.node_count
    counts["norm_support"] += int(np.count_nonzero(f.values[space.domain.inside]))


def _fft_probe(counts, u, *_, **__):
    nodes = u.grid.node_count
    counts["fft_nodes"] += nodes
    counts["fft_flops"] += 5.0 * nodes * math.log2(nodes)


PROBES = {"spaces.luxemburg_norm": _norm_probe,
          "operators.fourier": _fft_probe,
          "operators.inverse_fourier": _fft_probe}


def unit(metric: str) -> str:
    """Unit of a metric, from the last part of its name."""
    last = metric.rsplit(".", 1)[-1]
    if last in ("calls", "nodes"):
        return "count"
    if last.endswith("_frac"):
        return "ratio"
    if last == "flops":
        return "flop"
    return "MiB" if last.endswith("_mb") else "s"


def layer_functions() -> dict:
    """{"layer.name": function} for every public function of every layer."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"whlab.{layer}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Wraps the layer functions; collects calls, total and self time."""

    def __init__(self):
        self.originals = layer_functions()
        self.stats = {key: [0, 0.0, 0.0] for key in self.originals}
        self.counts = dict.fromkeys(
            ("norm_nodes", "norm_support", "fft_nodes", "fft_flops"), 0)
        self._stack = [0.0]
        self._patched = []

    def _wrap(self, key, fn):
        stat = self.stats[key]
        stack = self._stack
        probe = PROBES.get(key)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                t = perf_counter()
                probe(counts, *args, **kwargs)
                stack[-1] += perf_counter() - t
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - child
                stack[-1] += duration

        return traced

    def install(self):
        wrappers = {id(fn): self._wrap(key, fn) for key, fn in self.originals.items()}
        originals = {id(fn): fn for fn in self.originals.values()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "whlab" and not mod_name.startswith("whlab."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is originals[id(value)]:
                    setattr(module, attr, wrappers[id(value)])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def reset(self):
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        for key in self.counts:
            self.counts[key] = 0
        self._stack[:] = [0.0]

    def _sum(self, keys, field):
        return sum(self.stats[k][field] for k in keys)

    def calls(self, *keys):
        return self._sum(keys, 0)

    def total_s(self, *keys):
        return self._sum(keys, 1)

    def self_s(self, *keys):
        return self._sum(keys, 2)

    def layer_keys(self, layer):
        return [k for k in self.stats if k.startswith(layer + ".")]

    def setup_metrics(self) -> dict:
        """Per-layer numbers of one load_config + preflight."""
        return {
            "cli.load_config.s": self.total_s("cli.load_config"),
            "cli.preflight.self_s": self.self_s("cli.preflight"),
            "spaces.field_build.s": self.total_s(*FIELD_BUILDERS),
            "operators.symbol_build.s": self.total_s(*SYMBOL_BUILDERS),
            "grid.domain_build.s": self.total_s(*DOMAIN_BUILDERS),
        }

    def iteration_metrics(self) -> dict:
        """Per-layer numbers of one iteration (run + emit of every config)."""
        c = self.counts
        nodes = c["norm_nodes"]
        return {
            "spaces.luxemburg_norm.calls": self.calls("spaces.luxemburg_norm"),
            "spaces.luxemburg_norm.self_s": self.self_s("spaces.luxemburg_norm"),
            "spaces.luxemburg_norm.nodes": nodes,
            "spaces.luxemburg_norm.support_frac":
                c["norm_support"] / nodes if nodes else 0.0,
            "spaces.axiom_check.self_s": self.self_s("spaces.axiom_check"),
            "operators.fft.calls": self.calls(*TRANSFORMS),
            "operators.fft.self_s": self.self_s(*TRANSFORMS),
            "operators.fft.nodes": c["fft_nodes"],
            "operators.fft.flops": c["fft_flops"],
            "operators.apply_multiplier.calls": self.calls("operators.apply_multiplier"),
            "operators.wiener_hopf_apply.calls": self.calls("operators.wiener_hopf_apply"),
            "witness.make_witness.calls": self.calls("witness.make_witness"),
            "witness.make_witness.self_s": self.self_s("witness.make_witness"),
            "witness.mollification_residual.calls":
                self.calls("witness.mollification_residual"),
            "witness.mollification_residual.self_s":
                self.self_s("witness.mollification_residual"),
            "witness.experiment.self_s": self.self_s(*EXPERIMENTS),
            "witness.place_witness_center.calls":
                self.calls("witness.place_witness_center"),
            "grid.ball_indicator.calls": self.calls("grid.ball_indicator"),
            "grid.ball_indicator.self_s": self.self_s("grid.ball_indicator"),
            "grid.restrict.calls": self.calls("grid.restrict"),
            "grid.restrict.self_s": self.self_s("grid.restrict", "grid.extend_by_zero"),
            "doubling.doubling_ratio.calls": self.calls("doubling.doubling_ratio"),
            "doubling.doubling_ratio.self_s": self.self_s("doubling.doubling_ratio"),
            "doubling.separated_sequence.calls": self.calls("doubling.separated_sequence"),
            "cli.emit.s": self.total_s("cli.emit"),
            "reports.render.s": self.self_s(*self.layer_keys("reports")),
        }
