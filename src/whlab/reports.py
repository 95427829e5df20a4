"""Deterministic text and CSV rendering of reports.

Given a fixed report object the rendered bytes are identical run to run:
no timestamps, fixed float formatting, fixed row order.  A text renderer
writes only the body of ``report.txt``; the CLI writes its frame (the
experiment kind, the config echo and the status line).  Every table goes
through one ``csv.writer``, so a cell that holds a comma, a quote or a
line feed is quoted.
"""

from __future__ import annotations

import csv
import io
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


def _fmt_down(x) -> str:
    """:func:`fmt` rounded toward -inf instead of to nearest, for a certified
    lower bound: the printed value never exceeds the float it prints.  The
    comparison is exact, in integers: x = p / q and the printed value is
    mant * 10^e."""
    if x is None or not math.isfinite(x) or x == 0:
        return fmt(x)
    x = float(x)
    digits, exp = f"{x:.11e}".split("e")  # 12 significant digits, to nearest
    mant, e = int(digits.replace(".", "")), int(exp) - 11
    p, q = x.as_integer_ratio()
    if (mant * 10 ** e * q > p) if e >= 0 else (mant * q > p * 10 ** -e):
        mant -= 1
        if 0 < mant < 10 ** 11:  # 10^11 - 1: the decade below keeps 12 digits
            mant, e = 10 * mant + 9, e - 1
    lead = e + len(str(abs(mant))) - 1  # the exponent of the leading digit, as "g" reads it
    if -4 <= lead < 12:  # written without an exponent; a normal float keeps 12 digits
        return fmt(float(f"{mant}e{e}"))
    # written with one; mant * 10^e may be subnormal or overflow, its leading digits do not
    return fmt(mant / 10 ** (lead - e)) + f"e{lead:+03d}"


def _point_columns(point):
    return ["y"] if len(point) == 1 else ["y1", "y2"]


def _csv(header: list, rows) -> str:
    """The header line, then one line per row of cells."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def doubling_csv(report: DoublingReport) -> str:
    header = (["tau", "j"] + _point_columns(report.entries[0].y)
              + ["R", "ratio", "disjoint"])
    return _csv(header, ([fmt(report.tau), j, *map(fmt, e.y), fmt(e.radius), fmt(e.ratio),
                          str(e.disjoint).lower()] for j, e in enumerate(report.entries)))


def tau_scan_csv(scan: list[DoublingReport]) -> str:
    return _csv(["tau", "d_est", "s_est"],
                ([fmt(r.tau), fmt(r.d_est), fmt(r.s_est)] for r in scan))


def witness_csv(report: ExperimentReport) -> str:
    header = (["delta"] + _point_columns(report.eta)
              + ["ratio", "norm_small", "norm_witness", "norm_big",
                 "quotient", "residual", "error"])
    return _csv(header, (
        [fmt(w.delta), *map(fmt, w.y or [math.nan] * len(report.eta)),
         fmt(w.ratio), fmt(w.norm_small), fmt(w.norm_witness), fmt(w.norm_big),
         fmt(w.quotient), fmt(w.residual), w.error or ""] for w in report.witnesses))


def pairwise_csv(report: ExperimentReport) -> str:
    return _csv(["j", "k", "distance", "bound", "bound_raw", "passed"],
                ([p.j, p.k, fmt(p.distance), fmt(p.bound), fmt(p.bound_raw),
                  str(p.passed).lower()] for p in report.pairs))


def _ledger_lines(report) -> list[str]:
    out = ["inequality ledger:"]
    for line in report.ledger:
        verdict = "PASS" if line.passed else "FAIL"
        out.append(f"  {line.name}: lhs={fmt(line.lhs)} rhs={fmt(line.rhs)} "
                   f"slack={fmt(line.slack)} {verdict}")
    return out


def experiment_text(report: ExperimentReport) -> list[str]:
    out = [f"symbol sup norm: {fmt(report.sup_norm)}"]
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
        out.append(f"achieved_lower_bound: {_fmt_down(report.achieved_lower_bound)}")
    if report.kappa_lower_bound is not None:
        out.append(f"pairwise distances (family of {report.family_size}):")
        for p in report.pairs:
            out.append(f"  d[{p.j},{p.k}]={fmt(p.distance)} "
                       f"bound={fmt(p.bound)} bound_raw={fmt(p.bound_raw)}")
        out.append(f"kappa_lower_bound: {_fmt_down(report.kappa_lower_bound)} "
                   f"(consistent with separation of a size-{report.family_size} family)")
        out.append(f"reported noncompactness bound (half): {_fmt_down(report.kappa_half)}")
    return out + _ledger_lines(report)


def doubling_text(report: DoublingReport) -> list[str]:
    out = [f"tau: {fmt(report.tau)}", "balls:"]
    for j, e in enumerate(report.entries):
        y = ",".join(fmt(c) for c in e.y)
        out.append(f"  j={j} y=({y}) R={fmt(e.radius)} ratio={fmt(e.ratio)} "
                   f"disjoint={str(e.disjoint).lower()}")
    out.append(f"D_est (min ratio over sampled balls): {fmt(report.d_est)}")
    out.append(f"S_est (max ratio over verified disjoint family): {fmt(report.s_est)}")
    out.append(f"disjointness_verified: {str(report.disjointness_verified).lower()}")
    return out


def tau_scan_text(scan: list[DoublingReport]) -> list[str]:
    return ["tau trend (decreasing toward 1):"] + [
        f"  tau={fmt(r.tau)} D_est={fmt(r.d_est)} S_est={fmt(r.s_est)}" for r in scan]


def space_check_text(results: list[AxiomResult]) -> list[str]:
    return [f"  {r.name}: worst={fmt(r.worst)} tol={fmt(r.tolerance)} "
            f"trials={r.trials} {'PASS' if r.passed else 'FAIL'}" for r in results]


def space_check_csv(results: list[AxiomResult]) -> str:
    return _csv(["check", "worst", "tolerance", "trials", "passed"],
                ([r.name, fmt(r.worst), fmt(r.tolerance), r.trials, str(r.passed).lower()]
                 for r in results))
