import collections
import csv
import re
import string
import textwrap
import time

import pytest
import yaml

from whlab import cli


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


NORM_LB = """
grid: {n: 1, half_width: 64.0, points: 2048}
space:
  exponent: {kind: constant, value: 2.0}
  weight: {kind: constant, value: 1.0}
  domain: {kind: full}
symbol: {kind: constant, value: 0.7}
experiment:
  kind: norm-lb
  rho: 2.0
  delta_schedule: [0.5, 0.25]
output: {directory: OUT, formats: both}
seed: 1
"""


def test_norm_lb_run_and_outputs(tmp_path):
    cfgtext = NORM_LB.replace("OUT", str(tmp_path / "out"))
    cfg = write_config(tmp_path, cfgtext)
    assert cli.main(["norm-lb", "--config", cfg]) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    achieved = [ln for ln in report.splitlines()
                if ln.startswith("achieved_lower_bound:")]
    assert len(achieved) == 1
    assert float(achieved[0].split(":")[1]) == pytest.approx(0.7, abs=1e-6)
    assert "PASS" in report
    assert "FAIL" not in report
    csv = (tmp_path / "out" / "witnesses.csv").read_text()
    assert csv.splitlines()[0] == ("delta,y,ratio,norm_small,norm_witness,"
                                   "norm_big,quotient,residual,error")


def test_byte_identical_reruns(tmp_path):
    cfgtext = NORM_LB.replace("OUT", str(tmp_path / "a"))
    cfg = write_config(tmp_path, cfgtext)
    assert cli.main(["norm-lb", "--config", cfg]) == 0
    assert cli.main(["norm-lb", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("report.txt", "witnesses.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_validate_subcommand(tmp_path):
    cfg = write_config(tmp_path, NORM_LB.replace("OUT", str(tmp_path / "o")))
    assert cli.main(["validate", "--config", cfg]) == 0


def test_subcommand_config_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, NORM_LB.replace("OUT", str(tmp_path / "o")))
    assert cli.main(["kappa-lb", "--config", cfg]) == 2
    assert "does not match" in capsys.readouterr().err


def test_tau_must_exceed_one(tmp_path, capsys):
    cfg = write_config(tmp_path, """
    grid: {n: 1, half_width: 16.0, points: 1024}
    space:
      exponent: {kind: constant, value: 2.0}
      weight: {kind: constant, value: 1.0}
      domain: {kind: halfline}
    experiment:
      kind: doubling-scan
      tau: 1.0
      balls: [{y: 4.0, r: 1.0}]
    """)
    assert cli.main(["doubling-scan", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "tau must exceed 1" in err


REJECTED = """
grid: {n: 1, half_width: 64.0, points: 1024}
space:
  exponent: {kind: constant, value: 2.0}
  weight: {kind: constant, value: 1.0}
  domain: {kind: halfline}
symbol: {kind: gaussian, center: 0.0, sigma: 2.0, peak: 1.0}
experiment: EXPERIMENT
"""


@pytest.mark.parametrize("experiment,message", [
    ("{kind: norm-lb, rho: 1.0, delta_schedule: [0.5]}", "rho must exceed 1"),
    ("{kind: kappa-lb, rho: 1.0, theta: 0.25, lambda: 4.0, m: 2, y0: 2.0}",
     "rho must exceed 1"),
    ("{kind: norm-lb, rho: 2.0, delta_schedule: [0.25, 0.5]}",
     "delta schedule must be strictly decreasing"),
    ("{kind: norm-lb, rho: 2.0, delta_schedule: [0.01]}",
     "no delta in the schedule admits a witness placement"),
    ("{kind: tau-scan, tau_list: [1.5, 2.0], theta: 0.125, lambda: 2.0, m: 2, "
     "y0: 4.0}", "tau list must be strictly decreasing"),
    ("{kind: doubling-scan, tau: 2.0, balls: [{y: 1.0, r: 1.0}]}",
     "is not contained in the grid box and the domain"),
    ("{kind: kappa-lb, rho: 2.0, theta: 0.25, lambda: 1.0e+300, m: 3}",
     "lambda ** m overflows"),
    ("{kind: norm-lb, rho: 2.0, delta_schedule: [.nan]}",
     "delta schedule must be finite and positive"),
    ("{kind: norm-lb, rho: 2.0, delta_schedule: [.inf, 1.0]}",
     "delta schedule must be finite and positive"),
    ("{kind: norm-lb, rho: 2.0, delta_schedule: []}", "delta schedule is empty"),
    ("{kind: tau-scan, tau_list: [], theta: 0.25, lambda: 4.0, m: 2}", "tau list is empty"),
    ("{kind: norm-lb, rho: 2.0, delta_schedule: [0.5], eta: .nan}",
     "expected a finite point"),
    ("{kind: norm-lb, rho: 2.0, delta_schedule: [0.02, 0.01]}",
     "(delta=0.01: support radius 200 exceeds L/4 = 16"),
    ("{kind: doubling-scan, tau: 2.0, balls: [{y: 8.0, r: 1.0}], theta: 0.25, "
     "lambda: 4.0}", "doubling-scan family needs 'm'"),
    ("{kind: doubling-scan, tau: 2.0, balls: [{y: 8.0, r: 1.0}], y0: 2.0}",
     "doubling-scan family needs 'theta'"),
    ("{kind: tau-scan, tau_list: [2.0, 1.5], theta: 0.25, lambda: 4.0, m: 2, "
     "y0: -2.0}", "inflated ball B((-8.0,), 4.0) is not contained"),
    ("{kind: norm-lb, rho: 2.0, delta_schedule: [0.5], eta: 1.0e+308}",
     "lies outside the frequency range [-25.1327, 25.0837]"),
    ("{kind: norm-lb, rho: 2.0, delta_schedule: [0.5], eta: 1.0e+6}",
     "lies outside the frequency range [-25.1327, 25.0837]"),
    ("{kind: kappa-lb, rho: 2.0, theta: 0.25, lambda: 4.0, m: 1, y0: 2.0}",
     "a separated family needs at least 2 balls"),
    ("{kind: kappa-lb, rho: 2.0, theta: 0.25, lambda: 1.2, m: 2, y0: 2.0}",
     "for disjoint inflated balls"),
    # YAML 1.1 reads a list element without a dot or a signed exponent as a string
    ("{kind: norm-lb, rho: 2.0, delta_schedule: [5e-1, 0.25]}",
     "['5e-1', 0.25] is not a list of numbers; YAML 1.1 reads '5e-1' as text, write 5.0e-01"),
    ("{kind: tau-scan, tau_list: [2.0, 15e-1], theta: 0.25, lambda: 4.0, m: 2}",
     "YAML 1.1 reads '15e-1' as text, write 1.5e+00"),
    ("{kind: norm-lb, rho: 2.0, delta_schedule: [0.5], eta: [1e0]}",
     "YAML 1.1 reads '1e0' as text, write 1.0e+00"),
    ("{kind: norm-lb, rho: 2.0, delta_schedule: [0.5], ray: [x, 1E0]}",
     "YAML 1.1 reads '1E0' as text, write 1.0e+00"),
    ("{kind: doubling-scan, tau: 2.0, balls: [{y: [8e0], r: 1.0}]}",
     "YAML 1.1 reads '8e0' as text, write 8.0e+00"),
    ("{kind: doubling-scan, tau: 2.0, balls: 5}", "experiment/balls: 5 is not a list"),
    ("{kind: norm-lb, rho: 2.0, delta_schedule: [0.5], ray: [0.0]}",
     "ray must be a nonzero direction of finite length"),
])
def test_validate_rejections(tmp_path, capsys, experiment, message):
    cfg = write_config(tmp_path, REJECTED.replace("EXPERIMENT", experiment))
    assert cli.main(["validate", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


FAMILY = """
grid: {n: 1, half_width: 256.0, points: 8192}
space:
  exponent: {kind: constant, value: 2.0}
  weight: {kind: constant, value: 1.0}
  domain: {kind: halfline}
symbol: {kind: constant, value: 0.7}
experiment: EXPERIMENT
"""


#: The plan steps and the family and placement builders they use, by the
#: module binding ``cli`` and the library call them through.
PLANNING = {"wit": ("plan_norm_lowerbound", "plan_kuratowski", "place_witness_center",
                    "separated_sequence"),
            "dbl": ("plan_weak_doubling", "plan_tau_scan", "separated_sequence")}


@pytest.mark.parametrize("experiment,plan", [
    ("{kind: norm-lb, rho: 2.0, delta_schedule: [0.5, 0.25]}", "plan_norm_lowerbound"),
    ("{kind: kappa-lb, rho: 2.0, theta: 0.25, lambda: 4.0, m: 3, y0: 1.0}",
     "plan_kuratowski"),
    ("{kind: doubling-scan, tau: 2.0, theta: 0.25, lambda: 4.0, m: 3, y0: 1.0}",
     "plan_weak_doubling"),
    ("{kind: tau-scan, tau_list: [2.0, 1.5], theta: 0.25, lambda: 4.0, m: 3, y0: 1.0}",
     "plan_tau_scan"),
], ids=["norm-lb", "kappa-lb", "doubling-scan", "tau-scan"])
def test_runs_reuse_the_preflighted_family(tmp_path, monkeypatch, experiment, plan):
    calls = collections.Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for module, names in PLANNING.items():
        for name in names:
            real = getattr(getattr(cli, module), name)
            monkeypatch.setattr(getattr(cli, module), name, counted(name, real))
    cfg = cli.preflight(cli.load_config(write_config(
        tmp_path, FAMILY.replace("EXPERIMENT", experiment))))
    assert calls[plan] == 1
    preflighted = dict(calls)
    cli.run(cfg)
    cli.run(cfg)
    assert dict(calls) == preflighted


BLOCKS = {
    "grid": "{n: 2, half_width: 16.0, points: 64}",
    "exponent": "{kind: constant, value: 2.0}",
    "weight": "{kind: constant, value: 1.0}",
    "domain": "{kind: cone, alpha1: 0.0, alpha2: 1.5}",
    "symbol": "{kind: constant, value: 0.5}",
    "seed": "0",
}

BLOCKS_CONFIG = """
grid: $grid
space:
  exponent: $exponent
  weight: $weight
  domain: $domain
symbol: $symbol
experiment: {kind: space-check, trials: 1}
seed: $seed
"""


@pytest.mark.parametrize("block,text,message", [
    ("exponent", "{kind: constant}", "constant exponent needs 'value'"),
    ("exponent", "{kind: piecewise, left: 2.0}", "piecewise exponent needs 'right'"),
    ("exponent", "{kind: expression}", "expression exponent needs 'expr'"),
    ("weight", "{kind: power}", "power weight needs 'gamma'"),
    ("weight", "{kind: expression}", "expression weight needs 'expr'"),
    ("weight", "{kind: power, gamma: 400}", "weights must be finite and positive"),
    ("weight", "{kind: constant, value: 1.0e-320}", "with a finite 1/w"),
    ("domain", "{kind: cone, alpha1: 0.0}", "cone domain needs 'alpha2'"),
    ("domain", "{kind: halfline}", "half-line masks require n = 1"),
    ("symbol", "{kind: constant}", "constant symbol needs 'value'"),
    ("symbol", "{kind: expression}", "expression symbol needs 'expr'"),
    ("seed", "-1", "schema violation at seed"),
    ("grid", "{n: 2, half_width: .inf, points: 64}", "grid spacing"),
    ("grid", "{n: 2, half_width: 1.0e+308, points: 64}", "grid spacing"),
    ("grid", "{n: 2, half_width: 1.0e-200, points: 64}", "cell volume"),
    ("grid", "{n: 2, half_width: 1.0e+160, points: 64}", "cell volume"),
    # 2**1000 nodes: an integral float the config format accepts as an integer
    ("grid", "{n: 1, half_width: 1.0, points: 1.0715086071862673e+301}",
     "the most complex samples numpy can index"),
    # overflowing expressions end with the field's own message, not a warning
    ("exponent", "{kind: expression, expr: '2.0 + exp(1000*x1)'}",
     "exponents must be finite and > 1 everywhere"),
    ("weight", "{kind: expression, expr: 'log(x1)'}",
     "weights must be finite and positive everywhere"),
    ("symbol", "{kind: expression, expr: '1/xi1'}", "symbol values must be finite"),
    ("symbol", "{kind: gaussian, sigma: 1.0e+200}", "2 sigma^2 a positive normal float"),
    ("symbol", "{kind: gaussian, sigma: 1.0e-200}", "2 sigma^2 a positive normal float"),
    ("exponent", "{kind: expression, expr: '2.0 + 0*x1 + 1j'}", "exponents must be real"),
    ("exponent", "{kind: expression, expr: ''}", "expression must be a non-empty string"),
    ("weight", "{kind: expression, expr: '1.0 + 0*x1 + 1j'}", "weights must be real"),
    # an infinite step level ends with the field's message, not a warning
    ("exponent", "{kind: piecewise, left: 2.0, right: .inf}",
     "exponents must be finite and > 1 everywhere"),
    # p/(p-1) rounds to 1 from about p = 2^53: the associate space has no exponent
    ("exponent", "{kind: constant, value: 1.0e+16}",
     "the conjugate p/(p-1) of the exponent p = 1e+16 rounds to 1"),
    ("symbol", "{kind: smoothed-step, high: .inf}", "symbol values must be finite"),
    # inf times the underflowed Gaussian is nan: rejected with no numpy warning
    ("symbol", "{kind: gaussian, sigma: 0.1, peak: .inf}", "symbol values must be finite"),
    # numbers in an expression are floats: a power of constants overflows at once
    ("exponent", "{kind: expression, expr: '10 ** 400'}", "overflows the float range"),
    ("weight", "{kind: expression, expr: '10 ** 400'}", "overflows the float range"),
    ("symbol", "{kind: expression, expr: '10 ** 400'}", "overflows the float range"),
    ("exponent", "{kind: expression, expr: '9 ** 9 ** 9'}", "overflows the float range"),
    # 2**58 nodes numpy can index, but the 2 EiB axis cannot be allocated
    ("grid", "{n: 1, half_width: 1.0, points: 288230376151711744}", "out of memory"),
    # YAML 1.1 reads a number without a dot or a signed exponent as a string
    ("symbol", "{kind: gaussian, sigma: 2e0}",
     "'2e0' is not a number; YAML 1.1 reads it as text, write 2.0e+00"),
    ("grid", "{n: 2, half_width: 1.0e308, points: 64}",
     "'1.0e308' is not a number; YAML 1.1 reads it as text, write 1.0e+308"),
    ("symbol", "{kind: gaussian, center: [0.0, 1e0]}",
     "[0.0, '1e0'] is not a number or a list of numbers; YAML 1.1 reads '1e0' as text, "
     "write 1.0e+00"),
])
def test_config_block_rejections(tmp_path, capsys, block, text, message):
    blocks = dict(BLOCKS, **{block: text})
    cfg = write_config(tmp_path, string.Template(BLOCKS_CONFIG).substitute(blocks))
    assert cli.main(["validate", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("block", ["exponent", "weight"])
@pytest.mark.parametrize("levels", [5, 6])
def test_comparison_towers_stay_numpy(tmp_path, capsys, block, levels):
    # (1 < 2) + (1 < 2) is 2 as Python bools; a tower of such terms would
    # build 2 ** 65536 (five levels) or 2 ** 2 ** 65536 (six) as a Python int
    tower = " ** ".join(["((1 < 2) + (1 < 2))"] * levels)
    blocks = dict(BLOCKS, **{block: f"{{kind: expression, expr: '{tower}'}}"})
    cfg = write_config(tmp_path, string.Template(BLOCKS_CONFIG).substitute(blocks))
    start = time.perf_counter()
    assert cli.main(["validate", "--config", cfg]) in (0, 2)
    assert time.perf_counter() - start < 1.0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("text", ["2e0", "1e-3", "1e+308", "1.0e308", "-5E2", "5e-324"])
def test_number_hint_spelling_loads_as_the_float(text):
    assert isinstance(yaml.safe_load(f"sigma: {text}")["sigma"], str)
    with pytest.raises(cli.ValidationError, match="YAML 1.1 reads it as text") as err:
        cli._check("symbol", {"kind": "gaussian", "sigma": text})
    spelling = str(err.value).rsplit("write ", 1)[1]
    assert yaml.safe_load(f"sigma: {spelling}")["sigma"] == float(text)
    # in a list the hint names the first element float() reads, and spells it
    listed = yaml.safe_load(f"center: [0.0, e1, {text}, 3e0]")["center"]
    with pytest.raises(cli.ValidationError,
                       match=f"YAML 1.1 reads '{re.escape(text)}' as text") as err:
        cli._check("symbol", {"kind": "gaussian", "center": listed})
    spelling = str(err.value).rsplit("write ", 1)[1]
    assert yaml.safe_load(f"center: [0.0, {spelling}]")["center"][1] == float(text)


@pytest.mark.parametrize("block,spec", [
    ("output", {"formats": "1e0"}),  # not a number key
    ("experiment", {"kind": "space-check", "trials": "0e0"}),  # 0 is no trial count
    ("symbol", {"kind": "gaussian", "sigma": "nan"}),  # YAML's .nan is no typo of nan
    ("grid", {"n": 1, "half_width": 1.0, "points": ["8e0"]}),  # a count is no list
])
def test_number_hint_only_for_a_float_the_key_takes(block, spec):
    with pytest.raises(cli.ValidationError, match="is not") as err:
        cli._check(block, spec)
    assert "YAML 1.1" not in str(err.value)


def test_every_key_of_the_config_format_has_a_type():
    blocks = {block for block, _ in cli._KEYS}
    keys = {key for row in cli._KEYS.values() for key in " ".join(row).split()}
    assert keys - blocks == set(cli._TYPES) - {"kind"}


def test_config_blocks_are_valid(tmp_path):
    cfg = write_config(tmp_path, string.Template(BLOCKS_CONFIG).substitute(BLOCKS))
    assert cli.main(["validate", "--config", cfg]) == 0


def test_integral_float_dimension_is_a_count(tmp_path):
    # n: 2.0 is an integer of the config format; the grid reads it as 2
    checks = []
    for n in ("2", "2.0"):
        cfg = write_config(tmp_path, string.Template(BLOCKS_CONFIG).substitute(
            BLOCKS, grid=f"{{n: {n}, half_width: 16.0, points: 64}}"))
        out = tmp_path / f"out{n}"
        assert cli.main(["space-check", "--config", cfg, "--out", str(out)]) == 0
        checks.append((out / "checks.csv").read_bytes())
    assert checks[0] == checks[1]


@pytest.mark.parametrize("name,text,message", [
    ("missing.yaml", None, "cannot read config"),
    ("directory.yaml", "", "cannot read config"),
    ("invalid.yaml", "grid: [1, 2", "is not valid YAML"),
])
def test_unreadable_config_exit_code(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    if text == "":
        path.mkdir()
    elif text is not None:
        path.write_text(text)
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_cone_domain_requires_n_2(tmp_path, capsys):
    cfg = write_config(tmp_path, REJECTED.replace(
        "{kind: halfline}", "{kind: cone, alpha1: 0.0, alpha2: 1.0}").replace(
        "EXPERIMENT", "{kind: space-check, trials: 1}"))
    assert cli.main(["validate", "--config", cfg]) == 2
    assert "sector masks require n = 2" in capsys.readouterr().err


def test_schema_rejects_unknown_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, """
    grid: {n: 1, half_width: 16.0, points: 1024}
    space:
      exponent: {kind: constant, value: 2.0}
      weight: {kind: constant, value: 1.0}
      domain: {kind: full}
    experiment: {kind: frobnicate}
    """)
    assert cli.main(["validate", "--config", cfg]) == 2
    assert "schema violation" in capsys.readouterr().err


def test_exponent_floor_enforced(tmp_path, capsys):
    cfg = write_config(tmp_path, """
    grid: {n: 1, half_width: 16.0, points: 1024}
    space:
      exponent: {kind: constant, value: 1.01}
      weight: {kind: constant, value: 1.0}
      domain: {kind: full}
    experiment: {kind: space-check, trials: 5}
    """)
    assert cli.main(["validate", "--config", cfg]) == 2
    assert "p_min" in capsys.readouterr().err


def test_missing_symbol_for_witness_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, """
    grid: {n: 1, half_width: 64.0, points: 1024}
    space:
      exponent: {kind: constant, value: 2.0}
      weight: {kind: constant, value: 1.0}
      domain: {kind: full}
    experiment:
      kind: norm-lb
      rho: 2.0
      delta_schedule: [0.5]
    """)
    assert cli.main(["validate", "--config", cfg]) == 2
    assert "symbol" in capsys.readouterr().err


def test_norm_lb_reports_a_skipped_delta(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, REJECTED.replace(
        "EXPERIMENT", "{kind: norm-lb, rho: 2.0, delta_schedule: [0.5, 0.05]}"))
    assert cli.main(["norm-lb", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert ("  delta=0.05: SKIPPED (support radius 40 exceeds L/4 = 16; "
            "no admissible placement)") in report.splitlines()
    with open(out / "witnesses.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert all(len(row) == len(rows[0]) for row in rows)
    assert rows[2][:3] == ["0.05", "nan", "nan"]


FINE_GRID = """
grid: {n: 1, half_width: 16.0, points: 1024}
space:
  exponent: {kind: constant, value: 2.0}
  weight: {kind: constant, value: 1.0}
  domain: {kind: DOMAIN}
symbol: {kind: constant, value: 0.7}
experiment: EXPERIMENT
"""


@pytest.mark.parametrize("delta,plateau", [
    ("100", "B((11.98,), 0.01)"),  # the witness is nonzero on the support nodes
    ("200", "B((11.99,), 0.005)"),  # the support holds nodes, the witness is 0 on each
    ("150", "B((11.986666666666666,), 0.006666666666666667)"),  # the support holds no node either
])
def test_norm_lb_skips_a_delta_finer_than_the_grid(tmp_path, delta, plateau):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, FINE_GRID.replace("DOMAIN", "halfline").replace(
        "EXPERIMENT", f"{{kind: norm-lb, rho: 2.0, delta_schedule: [{delta}, 1.0]}}"))
    assert cli.main(["validate", "--config", cfg]) == 0
    assert cli.main(["norm-lb", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "report.txt").read_text().splitlines()
    assert f"  delta={delta}: SKIPPED (plateau ball {plateau} contains no grid node)" in report
    assert any(line.startswith("  delta=1 y=(10) ratio=") for line in report)
    with open(out / "witnesses.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [9, 9, 9]
    assert rows[1][-1] == f"plateau ball {plateau} contains no grid node"


def test_witness_csv_rows_of_skipped_deltas_in_2d(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, """
    grid: {n: 2, half_width: 16.0, points: 64}
    space:
      exponent: {kind: constant, value: 2.0}
      weight: {kind: constant, value: 1.0}
      domain: {kind: cone, alpha1: 0.0, alpha2: 1.5}
    symbol: {kind: constant, value: 0.7}
    experiment: {kind: norm-lb, rho: 2.0, delta_schedule: [64.0, 1.0, 0.05]}
    """)
    assert cli.main(["norm-lb", "--config", cfg, "--out", str(out)]) == 0
    skipped = [line.split(": SKIPPED (", 1)[1][:-1]
               for line in (out / "report.txt").read_text().splitlines() if "SKIPPED" in line]
    assert skipped[0].startswith("plateau ball B((11.96875, ")
    with open(out / "witnesses.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [10, 10, 10, 10]
    assert [rows[1][-1], rows[3][-1]] == skipped


def test_validate_rejects_a_doubling_ball_whose_inner_ball_holds_no_node(tmp_path, capsys):
    cfg = write_config(tmp_path, FINE_GRID.replace("DOMAIN", "full").replace(
        "EXPERIMENT", "{kind: doubling-scan, tau: 8.0, balls: [{y: 0.015625, r: 0.005}]}"))
    for command in ("validate", "doubling-scan"):
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert ("ball B((0.015625,), 0.005) contains no grid node"
                in capsys.readouterr().err)


def test_doubling_scan_rejects_a_degenerate_inner_ball(tmp_path, capsys):
    cfg = write_config(tmp_path, REJECTED.replace("value: 1.0}", "value: 1.0e-20}").replace(
        "EXPERIMENT", "{kind: doubling-scan, tau: 2.0, balls: [{y: 8.0, r: 1.0}]}"))
    assert cli.main(["doubling-scan", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "degenerate inner ball: indicator norm below 1e-14" in capsys.readouterr().err


def test_norm_lb_on_the_slit_plane(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, """
    grid: {n: 2, half_width: 16.0, points: 128}
    space:
      exponent: {kind: constant, value: 2.0}
      weight: {kind: constant, value: 1.0}
      domain: {kind: cone, alpha1: 0.0, alpha2: 6.283185307179586}
    symbol: {kind: gaussian, sigma: 2.0}
    experiment: {kind: norm-lb, rho: 2.0, delta_schedule: [1.0, 0.5]}
    """)
    assert cli.main(["norm-lb", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "report.txt").read_text().splitlines()
    assert "achieved_lower_bound: 0.942799523974" in report


def test_doubling_scan_csv_schema(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
    grid: {{n: 1, half_width: 16.0, points: 2048}}
    space:
      exponent: {{kind: constant, value: 2.0}}
      weight: {{kind: constant, value: 1.0}}
      domain: {{kind: full}}
    experiment:
      kind: doubling-scan
      tau: 2.0
      balls: [{{y: 0.0, r: 1.0}}, {{y: 4.0, r: 1.0}}]
    output: {{directory: {out}, formats: csv}}
    """)
    assert cli.main(["doubling-scan", "--config", cfg]) == 0
    lines = (out / "doubling.csv").read_text().splitlines()
    assert lines[0] == "tau,j,y,R,ratio,disjoint"
    assert len(lines) == 3
    assert not (out / "report.txt").exists()  # csv-only format


def test_kappa_cli_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
    grid: {{n: 1, half_width: 256.0, points: 8192}}
    space:
      exponent: {{kind: constant, value: 2.0}}
      weight: {{kind: constant, value: 1.0}}
      domain: {{kind: halfline}}
    symbol: {{kind: constant, value: 0.7}}
    experiment:
      kind: kappa-lb
      rho: 2.0
      theta: 0.25
      lambda: 4.0
      m: 3
      y0: 1.0
    output: {{directory: {out}, formats: both}}
    """)
    assert cli.main(["kappa-lb", "--config", cfg]) == 0
    report = (out / "report.txt").read_text()
    assert "kappa_lower_bound" in report
    pairwise = (out / "pairwise.csv").read_text().splitlines()
    assert pairwise[0] == "j,k,distance,bound,bound_raw,passed"
    assert len(pairwise) == 4  # 3 balls -> 3 pairs


def test_space_check_seeded_determinism(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    base = """
    grid: {n: 1, half_width: 16.0, points: 256}
    space:
      exponent: {kind: piecewise, left: 2.0, right: 3.0}
      weight: {kind: power, gamma: 0.2}
      domain: {kind: full}
    experiment: {kind: space-check, trials: 10}
    seed: 9
    """
    cfg = write_config(tmp_path, base)
    assert cli.main(["space-check", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["space-check", "--config", cfg, "--out", str(out2)]) == 0
    assert ((out1 / "checks.csv").read_bytes() == (out2 / "checks.csv").read_bytes())
    assert "status: OK" in (out1 / "report.txt").read_text()


def test_space_check_reads_integral_floats_as_counts(tmp_path):
    # config integers admit 3.0; trials and seed must still be counts
    checks = []
    for trials, seed in (("3", "9"), ("3.0", "9.0")):
        out = tmp_path / f"out{len(checks)}"
        cfg = write_config(tmp_path, f"""
        grid: {{n: 1, half_width: 16.0, points: 256}}
        space:
          exponent: {{kind: constant, value: 2.0}}
          weight: {{kind: constant}}
          domain: {{kind: full}}
        experiment: {{kind: space-check, trials: {trials}}}
        seed: {seed}
        """)
        assert cli.main(["space-check", "--config", cfg, "--out", str(out)]) == 0
        checks.append((out / "checks.csv").read_bytes())
    assert checks[0] == checks[1]
    assert b",3,true" in checks[0]


def test_expression_blocks(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
    grid: {{n: 1, half_width: 16.0, points: 512}}
    space:
      exponent: {{kind: expression, expr: "2.0 + 0.5*exp(-r)"}}
      weight: {{kind: expression, expr: "exp(abs(x)/8)"}}
      domain: {{kind: full}}
    symbol: {{kind: expression, expr: "0.5 + 0.0*xi"}}
    experiment:
      kind: norm-lb
      rho: 2.0
      delta_schedule: [1.0, 0.5]
    output: {{directory: {out}, formats: text}}
    """)
    assert cli.main(["norm-lb", "--config", cfg]) == 0
    report = (out / "report.txt").read_text()
    achieved = [ln for ln in report.splitlines()
                if ln.startswith("achieved_lower_bound:")]
    assert float(achieved[0].split(":")[1]) == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("expr,message", [
    ("x.view('i8')", "Attribute is not allowed"),
    ("(lambda t: t)(x)", "Lambda is not allowed"),
    ("clip(x, a_min=2.0)", "keyword is not allowed"),
    ("foo + x", "unknown name 'foo'"),
    ("open(x)", "only whitelisted functions may be called"),
    ("x*('a' < 'b')", "constant 'a' is not a number"),
])
def test_expression_whitelist_rejections(tmp_path, capsys, expr, message):
    cfg = write_config(tmp_path, f"""
    grid: {{n: 1, half_width: 16.0, points: 512}}
    space:
      exponent: {{kind: expression, expr: "2.0 + 0.0*{expr}"}}
      weight: {{kind: constant, value: 1.0}}
      domain: {{kind: full}}
    experiment: {{kind: space-check, trials: 5}}
    """)
    assert cli.main(["validate", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


def test_chain_failure_exit_code(tmp_path, capsys, monkeypatch):
    from whlab import witness as wit

    cfgtext = NORM_LB.replace("OUT", str(tmp_path / "out"))
    cfg = write_config(tmp_path, cfgtext)

    real = wit.norm_lowerbound_experiment

    def sabotaged(*args, **kwargs):
        rep = real(*args, **kwargs)
        bad = wit.LedgerLine("plateau-chain[forced]", 2.0, 1.0, 0.0, False)
        object.__setattr__(rep, "ledger", rep.ledger + (bad,))
        return rep

    monkeypatch.setattr(cli.wit, "norm_lowerbound_experiment", sabotaged)
    assert cli.main(["norm-lb", "--config", cfg]) == 4
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "FAIL" in report
    assert report.splitlines()[-1] == "status: CHAIN FAILURE"
    assert "'status: CHAIN FAILURE'" in capsys.readouterr().err


def test_axiom_failure_exit_code(tmp_path, capsys, monkeypatch):
    failed = cli.spaces.AxiomResult("triangle", 2.0, 1e-9, False, 3)
    monkeypatch.setattr(cli.spaces, "axiom_check", lambda space, **kwargs: [failed])
    out = tmp_path / "out"
    cfg = write_config(tmp_path, """
    grid: {n: 1, half_width: 16.0, points: 256}
    space:
      exponent: {kind: constant, value: 2.0}
      weight: {kind: constant}
      domain: {kind: full}
    experiment: {kind: space-check, trials: 3}
    """)
    assert cli.main(["space-check", "--config", cfg, "--out", str(out)]) == 4
    report = (out / "report.txt").read_text().splitlines()
    assert report[-2:] == ["  triangle: worst=2 tol=1e-09 trials=3 FAIL",
                           "status: AXIOM FAILURE"]
    err = capsys.readouterr().err
    assert "'status: AXIOM FAILURE'" in err
    assert "inequality chain" not in err


def test_numeric_failure_exit_code(tmp_path, monkeypatch):
    from whlab.errors import NumericFailure

    cfgtext = NORM_LB.replace("OUT", str(tmp_path / "out"))
    cfg = write_config(tmp_path, cfgtext)

    def explode(*args, **kwargs):
        raise NumericFailure("forced overflow")

    monkeypatch.setattr(cli.wit, "norm_lowerbound_experiment", explode)
    assert cli.main(["norm-lb", "--config", cfg]) == 3


def test_config_echo_round_trips(tmp_path):
    cfgtext = NORM_LB.replace("OUT", str(tmp_path / "out"))
    cfg = write_config(tmp_path, cfgtext)
    raw = cli.load_config(cfg)
    parsed = cli.preflight(raw)
    assert yaml.safe_load(parsed.echo) == raw


@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_unwritable_output_path_exit_code(tmp_path, capsys, target):
    (tmp_path / "file").write_text("not a directory\n")
    cfg = write_config(tmp_path, NORM_LB.replace("OUT", str(tmp_path / "o")))
    assert cli.main(["norm-lb", "--config", cfg, "--out", str(tmp_path / target)]) == 2
    assert "cannot write the outputs" in capsys.readouterr().err


OVERFLOW_CONFIG = """
grid: {n: 2, half_width: 16.0, points: 64}
space:
  exponent: {kind: constant, value: 2.0}
  weight: {kind: constant, value: $weight}
  domain: {kind: cone, alpha1: 0.0, alpha2: 1.5}
symbol: {kind: constant, value: 0.5}
experiment: $experiment
"""


@pytest.mark.parametrize("weight,experiment,code,message", [
    ("1.0", "{kind: norm-lb, rho: 2.0, delta_schedule: [0.5], "
     "ray: [1.0e+308, 1.0e+308]}", 0, ""),
    ("1.0e-320", "{kind: space-check, trials: 1}", 2,
     "weights must be finite and positive"),
], ids=["ray-length", "reciprocal-weight"])
def test_overflowing_inputs_exit_without_a_warning(tmp_path, capsys, weight,
                                                   experiment, code, message):
    # a numpy RuntimeWarning is an error under the pytest configuration
    def main(experiment, out):
        cfg = write_config(tmp_path, string.Template(OVERFLOW_CONFIG).substitute(
            weight=weight, experiment=experiment), name=f"{out}.yaml")
        kind = yaml.safe_load(experiment)["kind"]
        return cli.main([kind, "--config", cfg, "--out", str(tmp_path / out)])

    assert main(experiment, "out") == code
    assert message in capsys.readouterr().err
    if code == 0:  # the long ray places the witness of its unit-scale direction
        assert main(experiment.replace("1.0e+308", "1.0"), "unit") == 0
        assert ((tmp_path / "out" / "witnesses.csv").read_bytes()
                == (tmp_path / "unit" / "witnesses.csv").read_bytes())


def test_sandwich_failure_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.wit, "SANDWICH_SLACK", -1.0)
    cfg = write_config(tmp_path, NORM_LB.replace("OUT", str(tmp_path / "out")))
    assert cli.main(["norm-lb", "--config", cfg]) == 3
    assert "sandwich inequality violated beyond slack" in capsys.readouterr().err
