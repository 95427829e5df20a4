"""Each demo config reproduces its committed report and CSV files byte for
byte, and each demo script its committed stdout.  The files under
``tests/golden/<config name>/`` and ``tests/golden/demos/`` are the
reference behaviour; regenerate them only for a change meant to alter the
output."""

import runpy
from pathlib import Path

import pytest
import yaml

from whlab import cli

ROOT = Path(__file__).resolve().parent
CONFIGS = sorted((ROOT.parent / "demos" / "configs").glob("*.yaml"))
DEMOS = sorted((ROOT.parent / "demos").glob("demo_*.py"))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_demo_config_matches_golden(tmp_path, config):
    kind = yaml.safe_load(config.read_text())["experiment"]["kind"]
    assert cli.main([kind, "--config", str(config), "--out", str(tmp_path)]) == 0
    golden = ROOT / "golden" / config.stem
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_script_matches_golden(capsys, demo):
    runpy.run_path(str(demo), run_name="__main__")
    golden = ROOT / "golden" / "demos" / f"{demo.stem}.txt"
    assert capsys.readouterr().out == golden.read_text()
