"""Smoke test: the quick demos run to the end.

Demo 04 (about a minute of IDS sampling) is left out.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_build_the_lattice.py",
    "02_hamiltonians_and_spectra.py",
    "03_exact_decimation.py",
    "05_verify_the_inequalities.py",
])
def test_demo_runs(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
