"""The quick demos run to the end against the current public API.

Demo 05 (XXZ exact diagonalization up to 21 sites, about 20 s)
is too slow for this suite; CI runs it as a step of its own.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
QUICK = ["01_xx_entanglement_spectrum.py", "02_single_copy_vs_entropy.py",
         "03_central_charge_extraction.py", "04_ising_closed_form.py",
         "06_distillation_bound.py"]


@pytest.mark.parametrize("name", QUICK)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a demo may write a figure into the working directory
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
