import csv
import string
import textwrap

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
     "delta schedule must be positive"),
    ("{kind: norm-lb, rho: 2.0, delta_schedule: [0.5], eta: .nan}",
     "expected a finite point"),
    ("{kind: norm-lb, rho: 2.0, delta_schedule: [0.02, 0.01]}",
     "(delta=0.01: support radius 200 exceeds L/4 = 16"),
    ("{kind: doubling-scan, tau: 2.0, balls: [{y: 8.0, r: 1.0}], theta: 0.25, "
     "lambda: 4.0}", "doubling-scan family needs 'm'"),
    ("{kind: doubling-scan, tau: 2.0, balls: [{y: 8.0, r: 1.0}], y0: 2.0}",
     "doubling-scan family needs 'theta'"),
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


@pytest.mark.parametrize("experiment,module,name", [
    ("{kind: kappa-lb, rho: 2.0, theta: 0.25, lambda: 4.0, m: 3, y0: 1.0}",
     "wit", "kuratowski_family"),
    ("{kind: doubling-scan, tau: 2.0, theta: 0.25, lambda: 4.0, m: 3, y0: 1.0}",
     "dbl", "separated_sequence"),
], ids=["kappa-lb", "doubling-scan"])
def test_runs_reuse_the_preflighted_family(tmp_path, monkeypatch, experiment,
                                           module, name):
    calls = []
    real = getattr(getattr(cli, module), name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(getattr(cli, module), name, counted)
    cfg = cli.preflight(cli.load_config(write_config(
        tmp_path, FAMILY.replace("EXPERIMENT", experiment))))
    assert len(calls) == 1
    cli.run(cfg)
    cli.run(cfg)
    assert len(calls) == 1


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
    ("symbol", "{kind: constant}", "constant symbol needs 'value'"),
    ("symbol", "{kind: expression}", "expression symbol needs 'expr'"),
    ("seed", "-1", "schema violation at seed"),
    ("grid", "{n: 2, half_width: .inf, points: 64}", "grid spacing"),
    ("grid", "{n: 2, half_width: 1.0e+308, points: 64}", "grid spacing"),
    ("grid", "{n: 2, half_width: 1.0e-200, points: 64}", "cell volume"),
    ("grid", "{n: 2, half_width: 1.0e+160, points: 64}", "cell volume"),
])
def test_config_block_rejections(tmp_path, capsys, block, text, message):
    blocks = dict(BLOCKS, **{block: text})
    cfg = write_config(tmp_path, string.Template(BLOCKS_CONFIG).substitute(blocks))
    assert cli.main(["validate", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


def test_config_blocks_are_valid(tmp_path):
    cfg = write_config(tmp_path, string.Template(BLOCKS_CONFIG).substitute(BLOCKS))
    assert cli.main(["validate", "--config", cfg]) == 0


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


def test_shipped_schema_is_valid():
    validator = cli._validator()
    type(validator).check_schema(validator.schema)


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


def test_chain_failure_exit_code(tmp_path, monkeypatch):
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
    assert "FAIL" in (tmp_path / "out" / "report.txt").read_text()


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
