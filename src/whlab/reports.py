"""Deterministic text and CSV rendering of reports.

Given a fixed report object the rendered bytes are identical run to run:
no timestamps, fixed float formatting, fixed row order.
"""

from __future__ import annotations

import math

from .doubling import DoublingReport
from .spaces import AxiomResult
from .witness import ExperimentReport

__all__ = [
    "fmt",
    "doubling_csv",
    "tau_scan_csv",
    "witness_csv",
    "pairwise_csv",
    "experiment_text",
    "doubling_text",
    "tau_scan_text",
    "space_check_text",
    "space_check_csv",
]


def fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.12g}"


def _point_columns(point):
    return ["y"] if len(point) == 1 else ["y1", "y2"]


def doubling_csv(report: DoublingReport) -> str:
    header = (["tau", "j"] + _point_columns(report.entries[0].y)
              + ["R", "ratio", "disjoint"])
    rows = [",".join(header)]
    for j, e in enumerate(report.entries):
        cells = [fmt(report.tau), str(j)]
        cells += [fmt(c) for c in e.y]
        cells += [fmt(e.radius), fmt(e.ratio), str(e.disjoint).lower()]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def tau_scan_csv(scan: list[DoublingReport]) -> str:
    out = ["tau,d_est,s_est"]
    for r in scan:
        out.append(f"{fmt(r.tau)},{fmt(r.d_est)},{fmt(r.s_est)}")
    return "\n".join(out) + "\n"


def witness_csv(report: ExperimentReport) -> str:
    header = (["delta"] + _point_columns(report.eta)
              + ["ratio", "norm_small", "norm_witness", "norm_big",
                 "quotient", "residual", "error"])
    rows = [",".join(header)]
    for w in report.witnesses:
        y = list(w.y) if w.y else [math.nan] * len(report.eta)
        cells = [fmt(w.delta)] + [fmt(c) for c in y]
        cells += [fmt(w.ratio), fmt(w.norm_small), fmt(w.norm_witness),
                  fmt(w.norm_big), fmt(w.quotient), fmt(w.residual),
                  w.error or ""]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def pairwise_csv(report: ExperimentReport) -> str:
    rows = ["j,k,distance,bound,bound_raw,passed"]
    for p in report.pairs:
        rows.append(f"{p.j},{p.k},{fmt(p.distance)},{fmt(p.bound)},"
                    f"{fmt(p.bound_raw)},{str(p.passed).lower()}")
    return "\n".join(rows) + "\n"


def _ledger_lines(report) -> list[str]:
    out = ["inequality ledger:"]
    for line in report.ledger:
        verdict = "PASS" if line.passed else "FAIL"
        out.append(f"  {line.name}: lhs={fmt(line.lhs)} rhs={fmt(line.rhs)} "
                   f"slack={fmt(line.slack)} {verdict}")
    return out


def _header(title: str, echo: str) -> list[str]:
    """Report title line, then the indented config echo."""
    out = [f"experiment report: {title}", "config:"]
    out.extend("  " + ln for ln in echo.rstrip("\n").split("\n"))
    return out


def experiment_text(report: ExperimentReport, config_echo: str) -> str:
    out = _header(report.kind, config_echo)
    out.append(f"symbol sup norm: {fmt(report.sup_norm)}")
    eta = ",".join(fmt(v) for v in report.eta)
    out.append(f"probed eta: ({eta})  |a(eta)| = {fmt(report.a_eta_abs)}")
    out.append(f"observed residual eps: {fmt(report.eps_obs)}")
    out.append(f"doubling estimate: {fmt(report.doubling_estimate)}")
    out.append("witnesses:")
    for w in report.witnesses:
        if w.error is not None:
            out.append(f"  delta={fmt(w.delta)}: SKIPPED ({w.error})")
            continue
        y = ",".join(fmt(c) for c in w.y)
        out.append(
            f"  delta={fmt(w.delta)} y=({y}) ratio={fmt(w.ratio)} "
            f"norms[small,f,big]=[{fmt(w.norm_small)},{fmt(w.norm_witness)},"
            f"{fmt(w.norm_big)}] quotient={fmt(w.quotient)} "
            f"residual={fmt(w.residual)}")
    if report.achieved_lower_bound is not None:
        out.append(f"achieved_lower_bound: {fmt(report.achieved_lower_bound)}")
    if report.kappa_lower_bound is not None:
        out.append(f"pairwise distances (family of {report.family_size}):")
        for p in report.pairs:
            out.append(f"  d[{p.j},{p.k}]={fmt(p.distance)} "
                       f"bound={fmt(p.bound)} bound_raw={fmt(p.bound_raw)}")
        out.append(f"kappa_lower_bound: {fmt(report.kappa_lower_bound)} "
                   f"(consistent with separation of a size-{report.family_size} family)")
        out.append(f"reported noncompactness bound (half): {fmt(report.kappa_half)}")
    out.extend(_ledger_lines(report))
    out.append(f"status: {'OK' if report.chains_passed else 'CHAIN FAILURE'}")
    return "\n".join(out) + "\n"


def doubling_text(report: DoublingReport, config_echo: str) -> str:
    out = _header("doubling-scan", config_echo)
    out.append(f"tau: {fmt(report.tau)}")
    out.append("balls:")
    for j, e in enumerate(report.entries):
        y = ",".join(fmt(c) for c in e.y)
        out.append(f"  j={j} y=({y}) R={fmt(e.radius)} ratio={fmt(e.ratio)} "
                   f"disjoint={str(e.disjoint).lower()}")
    out.append(f"D_est (min ratio over sampled balls): {fmt(report.d_est)}")
    out.append(f"S_est (max ratio over verified disjoint family): {fmt(report.s_est)}")
    out.append(f"disjointness_verified: {str(report.disjointness_verified).lower()}")
    out.append("status: OK")
    return "\n".join(out) + "\n"


def tau_scan_text(scan: list[DoublingReport], config_echo: str) -> str:
    out = _header("tau-scan", config_echo)
    out.append("tau trend (decreasing toward 1):")
    for r in scan:
        out.append(f"  tau={fmt(r.tau)} D_est={fmt(r.d_est)} S_est={fmt(r.s_est)}")
    out.append("status: OK")
    return "\n".join(out) + "\n"


def space_check_text(results: list[AxiomResult], config_echo: str) -> str:
    out = _header("space-check", config_echo)
    ok = True
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        out.append(f"  {r.name}: worst={fmt(r.worst)} tol={fmt(r.tolerance)} "
                   f"trials={r.trials} {verdict}")
    out.append(f"status: {'OK' if ok else 'AXIOM FAILURE'}")
    return "\n".join(out) + "\n"


def space_check_csv(results: list[AxiomResult]) -> str:
    rows = ["check,worst,tolerance,trials,passed"]
    for r in results:
        rows.append(f"{r.name},{fmt(r.worst)},{fmt(r.tolerance)},"
                    f"{r.trials},{str(r.passed).lower()}")
    return "\n".join(rows) + "\n"
