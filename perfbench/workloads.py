"""Workload inputs and the correctness check of their outputs.

A workload is a fixed list of run configs (copied under ``configs/`` so
that edits to the demos cannot change the benchmark).  The workload seed
only moves the Gaussian symbol and the axiom RNG: the geometry stays fixed
because the ``kappa-1d`` family already sits at both the L/4 margin limit
and the 4h/theta resolution limit.

Symbols come from a table of ``VARIANTS`` entries (variant = seed mod
``VARIANTS``; variant 0 is the demo symbol itself), and ``reference.json``
holds the certified numbers of every variant as the library produced them
when the benchmark was defined.  So every seed is checked against a stored
reference, not only against the run's own ledger.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE / "configs"
REFERENCE_PATH = HERE / "reference.json"

VARIANTS = 32
#: Relative tolerance of the reference comparison.  Loose enough for a
#: directed-rounding norm (which moves values by about NORM_RTOL = 1e-10),
#: tight enough that any loosened certified bound fails.
REL_TOL = 1e-8
AXIOM_SEED_BASE = 2024
#: Checks in a space-check report; every one must PASS.
AXIOMS = 8

WORKLOADS = {
    "kappa-1d": ("kappa_lb",),
    "axioms-dense": ("space_check",),
    "sector-2d": ("sector_norm_lb", "sector_kappa_lb", "sector_tau_scan"),
}


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under ``.perfbench/`` at the checkout root; removed
    afterwards, and ``.perfbench/`` with it once no run uses it."""
    parent = HERE.parent / ".perfbench"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def symbol_variant(variant: int, n: int) -> dict:
    """Gaussian symbol block of one variant on an n-dimensional grid.

    Variant 0 is the demo symbol (center 0, sigma 2).  The others draw the
    center from [-1, 1]^n and sigma from [1.8, 2.4]: every variant keeps
    the ledgers of all configs passing.
    """
    if variant == 0:
        center, sigma = ([0.0] * n), 2.0
    else:
        rng = np.random.default_rng([variant, n])
        center = [round(float(c), 6) for c in rng.uniform(-1.0, 1.0, n)]
        sigma = round(float(rng.uniform(1.8, 2.4)), 6)
    return {"kind": "gaussian", "center": center[0] if n == 1 else center,
            "sigma": sigma, "peak": 1.0}


def make_configs(workload: str, seed: int, dest: Path) -> list[Path]:
    """Write the workload's configs for ``seed`` into ``dest``."""
    paths = []
    for name in WORKLOADS[workload]:
        raw = yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())
        if "symbol" in raw:
            raw["symbol"] = symbol_variant(seed % VARIANTS, raw["grid"]["n"])
        if raw["experiment"]["kind"] == "space-check":
            raw["seed"] = AXIOM_SEED_BASE + seed
        path = dest / f"{name}.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        paths.append(path)
    return paths


_REPORT_FIELDS = {
    "sup_norm": re.compile(r"^symbol sup norm: (\S+)$", re.M),
    "eps_obs": re.compile(r"^observed residual eps: (\S+)$", re.M),
    "doubling_estimate": re.compile(r"^doubling estimate: (\S+)$", re.M),
    "achieved_lower_bound": re.compile(r"^achieved_lower_bound: (\S+)$", re.M),
    "kappa_lower_bound": re.compile(r"^kappa_lower_bound: (\S+) ", re.M),
    "kappa_half": re.compile(r"^reported noncompactness bound \(half\): (\S+)$", re.M),
}


def read_outputs(out_dir: Path) -> dict:
    """Certified numbers of one emitted run, parsed from the written files.

    Raises ``ValueError`` when a file is missing its verdict line or a
    value; the caller counts that as a failed iteration.
    """
    text = (out_dir / "report.txt").read_text()
    status = re.search(r"^status: (.+)$", text, re.M)
    if status is None:
        raise ValueError(f"{out_dir}/report.txt has no status line")
    header = re.match(r"experiment report: (\S+)", text)
    if header is None:
        raise ValueError(f"{out_dir}/report.txt has no header line")
    kind = header.group(1)
    values = {"kind": kind, "status_ok": status.group(1) == "OK"}
    if kind == "tau-scan":
        with open(out_dir / "tau_scan.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                values[f"d_est[tau={row['tau']}]"] = float(row["d_est"])
                values[f"s_est[tau={row['tau']}]"] = float(row["s_est"])
    elif kind == "space-check":
        with open(out_dir / "checks.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                values[f"passed[{row['check']}]"] = row["passed"] == "true"
    else:
        for key, pattern in _REPORT_FIELDS.items():
            match = pattern.search(text)
            if match is not None:
                values[key] = float(match.group(1))
    return values


def load_reference(workload: str, seed: int) -> dict:
    """Reference values per config name for this seed ({} for axioms)."""
    table = json.loads(REFERENCE_PATH.read_text())
    return table["workloads"].get(workload, {}).get(str(seed % VARIANTS), {})


def check(name: str, got: dict, ref: dict | None) -> list[str]:
    """Problems with one config's outputs; empty when they are correct.

    A space-check report must list all ``AXIOMS`` checks as passed; every
    other report must match a non-empty reference entry.
    """
    problems = []
    if not got.get("status_ok"):
        problems.append(f"{name}: report status is not OK")
    if got["kind"] == "space-check":
        flags = [k for k in got if k.startswith("passed[")]
        problems += [f"{name}: axiom {k[7:-1]} FAILED" for k in flags if not got[k]]
        if len(flags) != AXIOMS:
            problems.append(f"{name}: expected {AXIOMS} axioms, got {len(flags)}")
    elif not ref:
        problems.append(f"{name}: reference.json has no values for this seed")
    for key, want in (ref or {}).items():
        have = got.get(key)
        if have is None:
            problems.append(f"{name}: {key} missing from the outputs")
        elif not math.isclose(have, want, rel_tol=REL_TOL, abs_tol=0.0):
            problems.append(f"{name}: {key} = {have!r}, reference {want!r}")
    return problems


def claim_ratios(results: dict) -> dict:
    """The paper's two claims as certified ratios (1 = target reached).

    ``norm_lb_ratio`` = achieved_lower_bound / sup|a| and
    ``kappa_lb_ratio`` = kappa_half / (sup|a| / 2), each the minimum over
    the workload's configs that certify that claim.
    """
    ratios = {}
    for got in results.values():
        sup = got.get("sup_norm")
        if sup is None:
            continue
        if "achieved_lower_bound" in got:
            r = got["achieved_lower_bound"] / sup
            ratios["norm_lb_ratio"] = min(r, ratios.get("norm_lb_ratio", r))
        if "kappa_half" in got:
            r = got["kappa_half"] / (sup / 2.0)
            ratios["kappa_lb_ratio"] = min(r, ratios.get("kappa_lb_ratio", r))
    return ratios
