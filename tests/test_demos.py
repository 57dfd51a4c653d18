"""Smoke test: every demo runs to the end."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_build_the_lattice.py",
    "02_hamiltonians_and_spectra.py",
    "03_exact_decimation.py",
    "04_density_of_states.py",
    "05_verify_the_inequalities.py",
])
def test_demo_runs(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
