"""The README's examples match the code: the library quick start runs as
written against the public API, and every command line parses and runs."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import singlecopy as sc
from singlecopy import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README quick start has no python block"
    return match.group(1)


def test_quick_start_runs():
    namespace = {}
    exec(compile(quick_start_block(), str(README), "exec"), namespace)
    # the block's stated results: the Ising S1 lands on its closed form, less the capped
    # ladder mode at eps = 28.1 (6.06e-13), and exact conformal S1 data give back c = 1
    assert namespace["s1"] == pytest.approx(sc.tfim_s1_half(0.5), abs=1e-12)
    assert sc.extrapolate_c(namespace["series"]) == pytest.approx(1.0, abs=1e-9)


def command_lines() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    match = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert match, "README command line section has no sh block"
    return [line.split("#", 1)[0].strip() for line in match.group(1).splitlines()
            if line.startswith("sce ")]


def test_command_block_not_empty():
    assert len(command_lines()) >= 5


# parse only: a flag deleted or renamed while the README still shows it fails here
@pytest.mark.parametrize("line", command_lines())
def test_command_line_parses(line):
    argv = shlex.split(line)[1:]
    assert cli._build_parser().parse_args(argv).command == argv[0]


def test_command_block_runs_in_order(tmp_path, monkeypatch, capsys):
    # in order, so that `fit-c xx.csv` reads the table an earlier line wrote
    monkeypatch.chdir(tmp_path)
    for line in command_lines():
        assert cli.main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(sc.__path__)])
def test_module_public_names_importable_from_package(name):
    module = importlib.import_module(f"singlecopy.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if getattr(sc, n, None) is not getattr(module, n)]
    assert missing == []
