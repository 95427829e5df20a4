import csv
import io
import math
from decimal import Context, Decimal

from hypothesis import example, given, settings
from hypothesis import strategies as st

from whlab import ExperimentReport, PairRecord, WitnessRecord
from whlab.reports import _fmt_down, experiment_text, fmt, witness_csv


def _report(error: str, eta: tuple) -> ExperimentReport:
    skipped = WitnessRecord(0.5, (), *[math.nan] * 6, error=error)
    measured = WitnessRecord(0.25, (1.0,) * len(eta), 0.7, 1.0, 1.5, 2.0, 2.0, 1e-16)
    return ExperimentReport(sup_norm=0.7, eta=eta, a_eta_abs=0.7,
                            witnesses=(skipped, measured), ledger=(), eps_obs=1e-16,
                            doubling_estimate=2.0, achieved_lower_bound=0.7)


# csv.writer with a "\n" line terminator leaves a lone "\r" unquoted, and
# csv.reader then ends the row there; no message the library writes holds one
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(error=st.text(st.characters(exclude_characters="\r") | st.sampled_from(',"\n '),
                     min_size=1),
       eta=st.sampled_from([(0.0,), (0.0, 1.0)]))
@example(error="plateau ball B((11.96875, 11.15), 0.015625) contains no grid node",
         eta=(0.0, 1.0))
@example(error='say "no", then\nstop', eta=(0.0,))
def test_witness_csv_error_cell_round_trips(error, eta):
    rows = list(csv.reader(io.StringIO(witness_csv(_report(error, eta)), newline="")))
    assert len(rows) == 3
    assert all(len(row) == len(rows[0]) for row in rows)
    assert rows[1][-1] == error
    assert rows[2][-1] == ""


# every float, normal and subnormal, of either sign; the certified bound of a
# constant-symbol run (c = 1.083051485177655) that rounding to nearest printed above c
@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
@example(x=1.0830514851754889)
@example(x=0.7)
@example(x=9.99999999999995e-5)
@example(x=9.99999999999995e11)
@example(x=5e-324)
def test_lower_bounds_print_rounded_down(x):
    # the printed value never exceeds x, and is fmt's unless fmt's exceeds x,
    # when it is the 12-digit decimal next below fmt's, written as fmt writes it
    down, nearest = _fmt_down(x), fmt(x)
    assert Decimal(down) <= Decimal(x)
    if Decimal(nearest) <= Decimal(x):
        assert down == nearest
    else:
        assert Decimal(down) == Context(prec=12).next_minus(Decimal(nearest))
    # a subnormal float holds fewer than 12 digits; below -1.79769313486e308 the
    # printed value reads as -inf
    if 1e-300 <= abs(x) <= 1e300:
        assert down == fmt(float(down))


def test_report_prints_each_certified_lower_bound_rounded_down():
    x = 1.0830514851754889  # fmt prints 1.08305148518
    assert fmt(x) == "1.08305148518" and _fmt_down(x) == "1.08305148517"
    rep = ExperimentReport(sup_norm=x, eta=(0.0,), a_eta_abs=x, witnesses=(),
                           ledger=(), eps_obs=0.0, doubling_estimate=2.0,
                           achieved_lower_bound=x, pairs=(PairRecord(0, 1, x, x, x, True),),
                           kappa_lower_bound=x, kappa_half=x, family_size=2)
    lines = experiment_text(rep)
    for label in ("achieved_lower_bound: ", "kappa_lower_bound: ",
                  "reported noncompactness bound (half): "):
        assert any(line.startswith(label + "1.08305148517") for line in lines), label
    assert "symbol sup norm: 1.08305148518" in lines  # not a lower bound: to nearest
