"""Each demo config and each benchmark config reproduces its committed
report and CSV files byte for byte, and each demo script its committed
stdout.  The files under ``tests/golden/<config name>/``,
``tests/golden/perfbench/<config name>/`` and ``tests/golden/demos/`` are
the reference behaviour; regenerate them only for a change meant to alter
the output."""

import runpy
from pathlib import Path

import pytest
import yaml

from whlab import cli

ROOT = Path(__file__).resolve().parent
CONFIGS = sorted((ROOT.parent / "demos" / "configs").glob("*.yaml"))
BENCH_CONFIGS = sorted((ROOT.parent / "perfbench" / "configs").glob("*.yaml"))
DEMOS = sorted((ROOT.parent / "demos").glob("demo_*.py"))


def assert_config_matches(config, golden, out):
    kind = yaml.safe_load(config.read_text())["experiment"]["kind"]
    assert cli.main([kind, "--config", str(config), "--out", str(out)]) == 0
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_demo_config_matches_golden(tmp_path, config):
    assert_config_matches(config, ROOT / "golden" / config.stem, tmp_path)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_runs_of_one_preflighted_config_agree(config):
    # the runs share the pre-flighted arguments, so neither may mutate them
    cfg = cli.preflight(cli.load_config(config))
    assert cli.run(cfg) == cli.run(cfg)


@pytest.mark.parametrize("config", BENCH_CONFIGS, ids=lambda p: p.stem)
def test_benchmark_config_matches_golden(tmp_path, config):
    assert_config_matches(config, ROOT / "golden" / "perfbench" / config.stem,
                          tmp_path)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_script_matches_golden(capsys, demo):
    runpy.run_path(str(demo), run_name="__main__")
    golden = ROOT / "golden" / "demos" / f"{demo.stem}.txt"
    assert capsys.readouterr().out == golden.read_text()
