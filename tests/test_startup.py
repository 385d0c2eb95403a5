"""Start-up contract: what a fresh interpreter loads on the cheap paths.

``import atppoints``, ``--version``, ``--help`` and usage errors load click
and none of the library or numpy; a command body loads only the library
modules it calls, so ``predict`` and ``import atppoints.bracket`` load no
numpy.  Each check runs in a fresh interpreter, since this one has loaded
everything already.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import atppoints
from atppoints.cli import main
from conftest import SAMPLE_MATCHES

SRC = Path(__file__).resolve().parent.parent / "src"
LIBRARY = ("bracket", "ingest", "manifest", "model", "points", "report", "season")
HEAVY = ("numpy", *(f"atppoints.{name}" for name in LIBRARY))


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))


def run_fresh(code: str) -> str:
    """The last stdout line of ``code`` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded_after(statement: str, modules=HEAVY) -> set[str]:
    """The ones of ``modules`` that ``statement`` loads."""
    return set(json.loads(run_fresh(
        f"import json, sys\n{statement}\n"
        f"print(json.dumps([m for m in {tuple(modules)!r} if m in sys.modules]))")))


def cli_call(args: list[str], exit_code: int) -> str:
    return ("from atppoints.cli import main\n"
            "try:\n"
            f"    main({args!r}, prog_name='atppoints')\n"
            "except SystemExit as exc:\n"
            f"    assert exc.code == {exit_code}, exc.code")


@pytest.mark.parametrize("statement", [
    "import atppoints",
    "import atppoints.cli",
    cli_call(["--version"], 0),
    cli_call(["--help"], 0),
    cli_call(["fit", "--help"], 0),
    cli_call(["fit"], 2),
    cli_call(["predict", "--alpha", "x", "1", "2"], 2),
], ids=["import", "import-cli", "version", "help", "fit-help", "fit-usage", "predict-usage"])
def test_cheap_paths_load_no_library(statement):
    assert loaded_after(statement) == set()


def test_bracket_loads_no_season_ingest_report_or_cli():
    assert loaded_after("import atppoints.bracket", [
        "atppoints.season", "atppoints.ingest", "atppoints.report", "atppoints.manifest",
        "atppoints.cli", "numpy", "atppoints.model"]) == set()


@pytest.mark.parametrize("name", ["predict", "win_probability", "ModelParams"])
def test_formula_exports_load_no_numpy(name):
    assert loaded_after(f"import atppoints\natppoints.{name}") == set()


@pytest.mark.parametrize("option", ["--alpha", "--params"])
def test_predict_loads_no_numpy(option, tmp_path):
    params = tmp_path / "params.txt"
    params.write_text("alpha=0.8722\n", encoding="utf-8")
    value = "0.8722" if option == "--alpha" else str(params)
    assert loaded_after(cli_call(["predict", option, value, "3000", "1500"], 0)) == set()


@pytest.mark.parametrize("command, args, absent", [
    ("fit", [str(SAMPLE_MATCHES), "--out", "OUT"], ("report", "season", "bracket")),
    ("evaluate", [str(SAMPLE_MATCHES), "--alpha", "0.8722"], ("report", "season", "bracket")),
    ("ingest-dump", [str(SAMPLE_MATCHES), "--out", "OUT"], ("report", "season", "bracket")),
    ("report", [str(SAMPLE_MATCHES), "--alpha", "0.8722", "--out", "OUT"],
     ("season", "bracket")),
    ("simulate", ["--players", "128", "--seasons", "2", "--burn-in", "1", "--out", "OUT"],
     ("report", "ingest", "model")),
], ids=["fit", "evaluate", "ingest-dump", "report", "simulate"])
def test_command_loads_only_what_it_calls(command, args, absent, tmp_path):
    # a fresh interpreter also shows that each command binds every name it calls
    args = [str(tmp_path / "out") if arg == "OUT" else arg for arg in args]
    statement = cli_call([command, *args], 0)
    assert loaded_after(statement, [f"atppoints.{name}" for name in absent]) == set()


def test_model_and_ingest_names_are_the_formula_objects():
    from atppoints import formula, ingest, model

    for name in ("ModelParams", "_require_positive"):
        assert getattr(model, name) is getattr(formula, name), name
    for name in ("Prediction", "predict", "win_probability"):  # their one home is formula
        assert not hasattr(model, name), name
    assert ingest._read_key_values is formula._read_key_values


def test_patch_before_first_command_is_kept(tmp_path):
    # the traced benchmark replaces atppoints.cli names by getattr/setattr
    # before any command runs; the command must call the replacement
    out = tmp_path / "fit"
    calls = run_fresh(
        "import atppoints.cli as cli\n"
        "calls = []\n"
        "real = getattr(cli, 'fit_alpha')\n"
        "setattr(cli, 'fit_alpha', lambda *a, **k: calls.append(1) or real(*a, **k))\n"
        + cli_call(["fit", str(SAMPLE_MATCHES), "--out", str(out)], 0) + "\n"
        "print(len(calls))")
    assert calls == "1"
    assert (out / "params.txt").exists()


@pytest.mark.parametrize("args", [
    ["fit", str(SAMPLE_MATCHES), "--levels", "G,,M", "--out", "OUT"],
    ["fit", str(SAMPLE_MATCHES), "--levels", "g", "--out", "OUT"],
    ["report", str(SAMPLE_MATCHES), "--alpha", "0.8722", "--from", "2015-06-01",
     "--to", "2014-01-01", "--out", "OUT"],
], ids=["empty-level", "lower-case-level", "reversed-dates"])
def test_scope_usage_errors_load_no_library(args, tmp_path):
    args = [str(tmp_path / "out") if arg == "OUT" else arg for arg in args]
    assert loaded_after(cli_call(args, 2)) == set()


def test_first_lookup_binds_the_whole_module():
    # bench/spans.py wraps atppoints.cli.load_matches, then
    # atppoints.ingest.load_raw_rows, then atppoints.cli.load_raw_rows; the
    # last must wrap the plain function, or report's one read counts twice
    assert run_fresh(
        "import atppoints.cli as cli, atppoints.ingest as ingest\n"
        "plain = ingest.load_raw_rows\n"
        "cli.load_matches\n"
        "ingest.load_raw_rows = lambda *a, **k: plain(*a, **k)\n"
        "print(cli.load_raw_rows is plain)") == "True"


@pytest.mark.parametrize("args", [
    ["predict", "--alpha", "0.8722", "3000", "1500"],
    ["fit", str(SAMPLE_MATCHES), "--out", "OUT"],
], ids=["predict", "fit"])
def test_run_as_module(args, tmp_path):
    # under python -m the commands look library names up on __main__
    def with_out(name):
        return [str(tmp_path / name) if arg == "OUT" else arg for arg in args]

    proc = subprocess.run([sys.executable, "-m", "atppoints.cli", *with_out("m")], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == CliRunner().invoke(main, with_out("in")).output
    if "OUT" in args:
        assert ((tmp_path / "m" / "params.txt").read_bytes()
                == (tmp_path / "in" / "params.txt").read_bytes())


class TestExports:
    def test_names_are_the_submodules_objects(self):
        assert set(atppoints.__all__) == {"__version__", *atppoints._EXPORTS}
        for name, module in atppoints._EXPORTS.items():
            assert getattr(atppoints, name) is getattr(
                importlib.import_module(f"atppoints.{module}"), name), name

    def test_dir_lists_every_export(self):
        assert set(atppoints.__all__) <= set(dir(atppoints))

    def test_star_import(self):
        namespace: dict = {}
        exec("from atppoints import *", namespace)
        assert set(atppoints.__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            getattr(atppoints, "nope")
        assert not hasattr(atppoints, "SeasonResult")
        assert not hasattr(atppoints, "best_18_total")
