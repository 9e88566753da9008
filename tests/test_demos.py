"""Every demo script runs to completion, in process."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS, "no demos/*.py found"


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    argv = [str(script)]
    if script.stem == "wigner_files":
        argv.append(str(tmp_path / "cat.wig"))
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()
    if script.stem == "wigner_files":
        assert (tmp_path / "cat.wig").stat().st_size > 0
