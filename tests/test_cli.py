"""CLI behavior: commands, exit codes, manifests, reproducible outputs."""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import atppoints.ingest
import atppoints.manifest
from atppoints.cli import main
from atppoints.errors import SchemaError
from atppoints.ingest import load_rankings, load_raw_rows, load_schema
from atppoints.season import default_calendar
from conftest import SAMPLE_MATCHES, SAMPLE_RANKINGS, tables_equal, tallied

MATCHES = str(SAMPLE_MATCHES)
RANKINGS = str(SAMPLE_RANKINGS)
GOLDEN_HELP = Path(__file__).with_name("golden_help.txt")


@pytest.fixture()
def runner():
    return CliRunner()


def tree_bytes(out_dir: Path, exclude: tuple[str, ...] = ("manifest.json",)) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.name not in exclude
    }


def manifest_of(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())


def golden_help() -> dict[str, str]:
    """``atppoints [COMMAND] --help`` -> its pinned text, at 80 columns."""
    sections = GOLDEN_HELP.read_text(encoding="utf-8").split("==> atppoints ")[1:]
    return dict(section.split(" <==\n", 1) for section in sections)


class TestHelp:
    # the pinned text shows every option default, so a moved default or a
    # reworded option shows here
    @pytest.mark.parametrize("command", ["", *main.commands])
    def test_help_text_is_pinned(self, runner, command):
        args = [*command.split(), "--help"]
        result = runner.invoke(main, args, prog_name="atppoints", terminal_width=80)
        assert result.exit_code == 0
        assert result.output == golden_help()[" ".join(args)]

    def test_every_command_is_pinned(self):
        assert set(golden_help()) == {" ".join([*c.split(), "--help"])
                                      for c in ["", *main.commands]}


class TestFit:
    def test_fit_sample(self, runner, tmp_path):
        out = tmp_path / "fit"
        result = runner.invoke(main, ["fit", MATCHES, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "alpha=" in result.output
        assert (out / "params.txt").exists()
        assert (out / "report.txt").exists()
        params = (out / "params.txt").read_text()
        assert "alpha=" in params
        assert "dataset_fingerprint=" in params
        manifest = manifest_of(out)
        assert manifest["command"] == "fit"
        assert MATCHES in manifest["inputs"]

    @pytest.mark.parametrize("command", [
        ["fit"], ["evaluate", "--alpha", "0.87"], ["report", "--alpha", "0.87"],
    ], ids=["fit", "evaluate", "report"])
    def test_fit_empty_date_range_fails_cleanly(self, runner, tmp_path, command):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            *command, MATCHES, "--from", "1990-01-01", "--to", "1990-12-31",
            "--out", str(out),
        ])
        assert result.exit_code == 5
        assert "no matches" in result.output
        assert not out.exists()

    def test_fit_missing_file_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["fit", "missing.csv", "--out", str(tmp_path)])
        assert result.exit_code == 2

    def test_fit_schema_error_exit_code(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        result = runner.invoke(main, ["fit", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 3
        assert "schema error" in result.output

    def test_non_utf8_archive_is_schema_error(self, runner, tmp_path):
        bad = tmp_path / "matches.csv"
        text = SAMPLE_MATCHES.read_bytes()
        cut = text.index(b"\n", len(text) // 2)
        bad.write_bytes(text[:cut] + b"\xe9" + text[cut:])
        result = runner.invoke(main, ["fit", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 3
        assert f"{bad}: not UTF-8" in result.output
        assert "Traceback" not in result.output

    def test_fit_io_error_exit_code(self, runner, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("i am a file, not a directory")
        result = runner.invoke(main, ["fit", MATCHES, "--out", str(blocker / "sub")])
        assert result.exit_code == 4
        assert "i/o error" in result.output

    def test_fingerprint_from_manifest_digests(self, runner, tmp_path):
        out = tmp_path / "fit"
        result = runner.invoke(main, ["fit", MATCHES, MATCHES, "--out", str(out)])
        assert result.exit_code == 0, result.output
        digest = hashlib.sha256(SAMPLE_MATCHES.read_bytes()).hexdigest()
        assert manifest_of(out)["inputs"] == {MATCHES: digest}
        expected = hashlib.sha256((digest + digest).encode("ascii")).hexdigest()
        assert f"dataset_fingerprint={expected}\n" in (out / "params.txt").read_text()

    def test_fit_byte_identical_reruns(self, runner, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            result = runner.invoke(main, ["fit", MATCHES, "--out", str(out)])
            assert result.exit_code == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)
        ma, mb = manifest_of(out_a), manifest_of(out_b)
        for m in (ma, mb):
            m.pop("created_at")
            m["flags"].pop("out")
        assert ma == mb


    def test_warns_when_alpha_stops_at_search_bound(self, runner, tmp_path):
        out = tmp_path / "fit"
        result = runner.invoke(main, ["fit", MATCHES, "--search-hi", "0.5", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "warning: alpha=0.500000 is within tol of the search bound" in result.stderr
        assert (out / "params.txt").exists()

    def test_no_warning_inside_search_bounds(self, runner, tmp_path):
        result = runner.invoke(main, ["fit", MATCHES, "--out", str(tmp_path / "fit")])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""

    @pytest.mark.parametrize("search_hi", ["1e308", "inf"])
    def test_unbounded_search_hi_is_domain_error(self, runner, tmp_path, search_hi):
        # with hi = 1e308 the golden-section midpoint overflows to alpha = inf
        out = tmp_path / "fit"
        result = runner.invoke(main, ["fit", MATCHES, "--search-hi", search_hi,
                                      "--out", str(out)])
        assert result.exit_code == 5, result.output
        assert "Traceback" not in result.output
        assert not (out / "params.txt").exists()

    @pytest.mark.parametrize("tol", ["1e-300", "inf"])
    def test_tol_outside_ulp_to_bracket_width_is_domain_error(self, runner, tmp_path, tol):
        # below one ulp of search_hi the search never ends; inf searches nothing
        out = tmp_path / "fit"
        result = runner.invoke(main, ["fit", MATCHES, "--tol", tol, "--out", str(out)])
        assert result.exit_code == 5, result.output
        assert "error: tol must lie in" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()


class TestScopeOptions:
    """--levels and --from/--to: spaces around a level letter are ignored,
    and an empty letter or a reversed date range is a usage error."""

    COMMANDS = {"fit": ("fit", "params.txt"), "ingest-dump": ("ingest-dump", "observations.csv")}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_spaces_around_level_letters(self, runner, tmp_path, command):
        name, written = self.COMMANDS[command]
        outputs = []
        for levels in ("G,M,A", "G, M, A", " G ,M,A "):
            out = tmp_path / str(len(outputs))
            result = runner.invoke(main, [name, MATCHES, "--levels", levels, "--out", str(out)])
            assert result.exit_code == 0, result.output
            outputs.append((out / written).read_bytes())
            assert manifest_of(out)["flags"]["levels"] == levels  # the flag text as given
        assert outputs[1] == outputs[2] == outputs[0]
        if command == "fit":
            assert b"n_matches=180\n" in outputs[0]

    @pytest.mark.parametrize("levels", ["", "G,,M", "G,M,", " , G"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_empty_level_letter_is_usage_error(self, runner, tmp_path, command, levels):
        out = tmp_path / "out"
        result = runner.invoke(main, [command, MATCHES, "--levels", levels, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "'--levels': empty level letter" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["fit"], ["evaluate", "--alpha", "0.87"], ["report", "--alpha", "0.87"], ["ingest-dump"],
    ], ids=["fit", "evaluate", "report", "ingest-dump"])
    def test_reversed_date_range_is_usage_error(self, runner, tmp_path, command):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            *command, MATCHES, "--from", "2015-06-01", "--to", "2014-01-01", "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert "--from 2015-06-01 is later than --to 2014-01-01" in result.output
        assert not out.exists()

    def test_one_day_range_is_not_reversed(self, runner, tmp_path):
        result = runner.invoke(main, [
            "ingest-dump", MATCHES, "--from", "2014-01-06", "--to", "2014-01-06",
            "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 0, result.output


class TestPredict:
    def test_even_points(self, runner):
        result = runner.invoke(main, ["predict", "--alpha", "0.8722", "1000", "1000"])
        assert result.exit_code == 0
        assert "probability 0.500000" in result.output
        assert "ratio       1.000000" in result.output

    def test_double_points_alpha_one(self, runner):
        result = runner.invoke(main, ["predict", "--alpha", "1", "2000", "1000"])
        assert result.exit_code == 0
        assert "probability 0.666667" in result.output

    def test_matches_model_oracle(self, runner):
        result = runner.invoke(main, ["predict", "--alpha", "0.8722", "10000", "1000"])
        # 10^0.8722 / (1 + 10^0.8722) to six decimals
        assert "probability 0.881667" in result.output

    def test_non_positive_points_usage_error(self, runner):
        result = runner.invoke(main, ["predict", "--alpha", "1", "0", "1000"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [["inf", "1"], ["1", "inf"], ["nan", "1"]])
    def test_non_finite_points_usage_error(self, runner, args):
        result = runner.invoke(main, ["predict", "--alpha", "1", *args])
        assert result.exit_code == 2
        assert "probability" not in result.output

    def test_params_file_source(self, runner, tmp_path):
        out = tmp_path / "fit"
        assert runner.invoke(main, ["fit", MATCHES, "--out", str(out)]).exit_code == 0
        result = runner.invoke(
            main, ["predict", "--params", str(out / "params.txt"), "1500", "1500"]
        )
        assert result.exit_code == 0
        assert "probability 0.500000" in result.output

    @pytest.mark.parametrize("text", ["alpha=0.8_7", "alpha=０.87", "alpha=0.87\nn_matches=1_84"],
                             ids=["alpha-underscore", "alpha-fullwidth", "n-matches-underscore"])
    def test_params_number_must_be_ascii(self, runner, tmp_path, text):
        params = tmp_path / "params.txt"
        params.write_text(text + "\n", encoding="utf-8")
        result = runner.invoke(main, ["predict", "--params", str(params), "1500", "1000"])
        assert result.exit_code == 3, result.output
        assert f"{params}: missing or invalid" in result.output

    def test_params_key_given_twice(self, runner, tmp_path):
        params = tmp_path / "params.txt"
        params.write_text("alpha=0.5\nalpha=0.9\n", encoding="utf-8")
        result = runner.invoke(main, ["predict", "--params", str(params), "2000", "1000"])
        assert result.exit_code == 3, result.output
        assert f"{params}:2: key 'alpha' repeats line 1" in result.output
        assert "probability" not in result.output

    def test_requires_alpha_or_params(self, runner):
        result = runner.invoke(main, ["predict", "100", "200"])
        assert result.exit_code == 2


class TestEvaluate:
    def test_prints_scores(self, runner):
        result = runner.invoke(main, ["evaluate", MATCHES, "--alpha", "0.8722"])
        assert result.exit_code == 0
        assert "e2" in result.output
        assert "baseline_e2" in result.output

    def test_writes_optional_report(self, runner, tmp_path):
        out = tmp_path / "eval"
        result = runner.invoke(
            main, ["evaluate", MATCHES, "--alpha", "0.9", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert (out / "evaluation.txt").exists()
        assert (out / "manifest.json").exists()


class TestReport:
    def test_full_report(self, runner, tmp_path):
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "report", MATCHES, "--rankings", RANKINGS,
            "--alpha", "0.8722", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        for name in (
            "ratio_curve.csv", "ratio_curve.svg", "calibration.csv",
            "calibration.svg", "rank_stats.csv", "rank_stats.txt",
            "participation.csv", "participation.txt", "ingest_report.txt",
            "manifest.json",
        ):
            assert (out / name).exists(), name

    def test_missing_rankings_skips_tables_keeps_figures(self, runner, tmp_path):
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "report", MATCHES, "--alpha", "0.8722", "--out", str(out),
        ])
        assert result.exit_code == 0
        assert (out / "ratio_curve.svg").exists()
        assert not (out / "rank_stats.csv").exists()
        assert "rank-band tables skipped" in result.output

    def test_archive_parsed_once(self, runner, tmp_path, monkeypatch):
        import atppoints.cli
        import atppoints.ingest

        calls = []
        for module in (atppoints.cli, atppoints.ingest):
            parse = module.load_raw_rows
            monkeypatch.setattr(module, "load_raw_rows",
                                lambda *a, parse=parse, **k: calls.append(1) or parse(*a, **k))
        result = runner.invoke(main, [
            "report", MATCHES, "--alpha", "0.8722", "--out", str(tmp_path / "report"),
        ])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_participation_ignores_ingest_scope(self, runner, tmp_path):
        # the tally folds every archive row before the scope selects any
        outputs = []
        for scope in ([], ["--from", "2015-01-01", "--levels", "G,M"], ["--include-qualifying"],
                      ["--drop-walkovers"]):
            out = tmp_path / str(len(outputs))
            result = runner.invoke(main, [
                "report", MATCHES, "--alpha", "0.8722", *scope, "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
            outputs.append(tree_bytes(out))
        for scoped in outputs[1:]:
            assert scoped["ingest_report.txt"] != outputs[0]["ingest_report.txt"]
            for name in ("participation.csv", "participation.txt"):
                assert scoped[name] == outputs[0][name], name

    def test_byte_identical_reruns(self, runner, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            result = runner.invoke(main, [
                "report", MATCHES, "--rankings", RANKINGS,
                "--alpha", "0.8722", "--out", str(out),
            ])
            assert result.exit_code == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)


    def test_golden_digests(self, runner, tmp_path):
        # pinned outputs: a change to ranking or participation code must keep every byte
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "report", MATCHES, "--rankings", RANKINGS, "--alpha", "0.8722", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        expected = {
            "rank_stats.csv": "6d02ccac309a3839ef7c23d66dfef63f4a6e161dee0f2a02aa410331b8512beb",
            "rank_stats.txt": "fd2c9fbd79c5d0915e9d8268e589dda84bae445542541b61768c7d710f3bd825",
            "participation.csv": "9891d2dde4a0e106615bfd713e9a121bf1ff7b80edf78d85d097af2ab99ff36d",
            "participation.txt": "87645fe8282bb9c4460481ee195dd09c88d8188565c17b9b631b1b4e94d1c285",
        }
        for name, digest in expected.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("points", ["nan", "0", "inf", "-5"])
    @pytest.mark.parametrize("band", [16, 32])
    def test_bad_ranking_points_row_skipped(self, runner, tmp_path, points, band):
        rankings = tmp_path / "rankings.csv"
        snapshot = {16: "2425", 32: "1265", 64: "773"}
        lines = ["ranking_date,rank,player,points"]
        lines += [f"20150105,{rank},p{rank},{pts}" for rank, pts in snapshot.items()]
        lines += [f"20160104,{rank},p{rank},{points if rank == band else pts}"
                  for rank, pts in snapshot.items()]
        rankings.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "report", MATCHES, "--rankings", str(rankings), "--alpha", "0.8722", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert "Traceback" not in result.output
        text = (out / "rank_stats.txt").read_text()
        assert "nan" not in text and "inf" not in text
        assert "skipped 1 snapshot dates missing a band" in text

    def test_only_snapshot_with_zero_rank_32_is_domain_error(self, runner, tmp_path):
        rankings = tmp_path / "rankings.csv"
        rankings.write_text("ranking_date,rank,player,points\n"
                            "20150105,16,a,2425\n20150105,32,b,0\n20150105,64,c,773\n")
        result = runner.invoke(main, [
            "report", MATCHES, "--rankings", str(rankings), "--alpha", "0.8722",
            "--out", str(tmp_path / "report"),
        ])
        assert result.exit_code == 5, result.output
        assert "no snapshot date contains every requested rank band" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("alpha", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("command", ["evaluate", "report"])
    def test_bad_alpha_is_domain_error(self, runner, tmp_path, command, alpha):
        result = runner.invoke(main, [
            command, MATCHES, "--alpha", alpha, "--out", str(tmp_path / command),
        ])
        assert result.exit_code == 5, result.output
        assert "alpha must be positive and finite" in result.output
        assert "Traceback" not in result.output


class TestInputColumns:
    """A leading byte-order mark is not part of a file's text, and report
    needs the columns its participation table reads."""

    def report_files(self, runner, out: Path, matches, rankings=RANKINGS, *extra):
        result = runner.invoke(main, ["report", str(matches), "--rankings", str(rankings),
                                      "--alpha", "0.8722", *extra, "--out", str(out)])
        assert result.exit_code == 0, result.output
        return tree_bytes(out)

    def test_bom_csv_reads_as_without(self, runner, tmp_path):
        matches, rankings = tmp_path / "matches.csv", tmp_path / "rankings.csv"
        matches.write_bytes(b"\xef\xbb\xbf" + SAMPLE_MATCHES.read_bytes())
        rankings.write_bytes(b"\xef\xbb\xbf" + SAMPLE_RANKINGS.read_bytes())
        plain = self.report_files(runner, tmp_path / "plain", MATCHES)
        assert self.report_files(runner, tmp_path / "bom", matches, rankings) == plain

    def test_bom_key_value_file_reads_as_without(self, runner, tmp_path):
        schema, params = tmp_path / "schema.cfg", tmp_path / "params.txt"
        schema.write_bytes(b"\xef\xbb\xbftournament_id=tourney_id\n")
        params.write_bytes(b"\xef\xbb\xbfalpha=0.8722\n")
        plain = self.report_files(runner, tmp_path / "plain", MATCHES)
        result = runner.invoke(main, ["report", MATCHES, "--rankings", RANKINGS, "--params",
                                      str(params), "--schema", str(schema),
                                      "--out", str(tmp_path / "bom")])
        assert result.exit_code == 0, result.output
        assert tree_bytes(tmp_path / "bom") == plain

    @pytest.mark.parametrize("dropped, named", [
        (["winner_id", "loser_id", "winner_rank", "loser_rank"],
         "winner_id, loser_id, winner_rank, loser_rank"),
        (["loser_rank"], "loser_rank"),
        (["tourney_id", "tourney_name"], "tourney_id or tourney_name"),
    ], ids=["ids-and-ranks", "loser-rank", "event"])
    def test_report_needs_participation_columns(self, runner, tmp_path, dropped, named):
        matches = tmp_path / "matches.csv"
        write_without(matches, dropped)
        out = tmp_path / "report"
        result = runner.invoke(main, ["report", str(matches), "--alpha", "0.8722",
                                      "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert f"{matches}: missing required columns: {named}\n" in result.output
        assert not out.exists()
        for command in (["fit"], ["ingest-dump"], ["evaluate", "--alpha", "0.8722"]):
            done = runner.invoke(main, [*command, str(matches), "--out", str(tmp_path / "x")])
            assert done.exit_code == 0, done.output

    @pytest.mark.parametrize("dropped", [["category"], ["tourney_id"], ["tourney_name"]])
    def test_report_without_optional_participation_column(self, runner, tmp_path, dropped):
        matches = tmp_path / "matches.csv"
        write_without(matches, dropped)
        self.report_files(runner, tmp_path / "report", matches)

    def test_rankings_without_player_column(self, runner, tmp_path):
        # ranking files need only ranking_date, rank and points
        rankings = tmp_path / "rankings.csv"
        write_without(rankings, ["player"], SAMPLE_RANKINGS)
        plain = self.report_files(runner, tmp_path / "plain", MATCHES)
        assert self.report_files(runner, tmp_path / "bare", MATCHES, rankings) == plain


    @pytest.mark.parametrize("column, code", [("winner_rank_points", 3), ("draw_size", 0)],
                             ids=["read", "unread"])
    def test_repeated_column(self, runner, tmp_path, column, code):
        # a second column of 1s: a read one would replace the winners' points
        matches = tmp_path / "matches.csv"
        with open(SAMPLE_MATCHES, newline="", encoding="utf-8") as fp:
            header, *rows = csv.reader(fp)
        with open(matches, "w", newline="", encoding="utf-8") as fp:
            csv.writer(fp).writerows([header + [column], *(row + ["1"] for row in rows)])
        out = tmp_path / "fit"
        result = runner.invoke(main, ["fit", str(matches), "--out", str(out)])
        assert result.exit_code == code, result.output
        assert "Traceback" not in result.output
        if code:
            assert f"{matches}: column {column} appears more than once\n" in result.output
            assert not out.exists()
        else:
            assert "alpha=1.315637" in result.output

    def test_two_fields_reading_one_column(self, runner, tmp_path):
        schema = tmp_path / "schema.cfg"
        schema.write_text("winner_points=winner_rank_points\nloser_points=winner_rank_points\n")
        out = tmp_path / "fit"
        result = runner.invoke(main, ["fit", MATCHES, "--schema", str(schema), "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert ("fields winner_points and loser_points both read column winner_rank_points\n"
                in result.output)
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_schema_remaps_score(self, runner, tmp_path):
        # the score column under another name still marks the sample's one
        # walkover; unmapped, --drop-walkovers finds no score column
        matches, schema = tmp_path / "matches.csv", tmp_path / "schema.cfg"
        matches.write_bytes(SAMPLE_MATCHES.read_bytes().replace(b",score,", b",result,", 1))
        schema.write_text("score=result\n")
        out = tmp_path / "remapped"
        result = runner.invoke(main, ["fit", str(matches), "--drop-walkovers",
                                      "--schema", str(schema), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "  by walkover       1\n" in (out / "report.txt").read_text()
        out = tmp_path / "unmapped"
        result = runner.invoke(main, ["fit", str(matches), "--drop-walkovers", "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert f"{matches}: missing required columns: score\n" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["fit"], ["evaluate", "--alpha", "0.8722"], ["report", "--alpha", "0.8722"],
        ["ingest-dump"],
    ], ids=["fit", "evaluate", "report", "ingest-dump"])
    def test_drop_walkovers_needs_score(self, runner, tmp_path, command):
        # without the flag no score column is needed; with it, an archive
        # without one would drop no walkover, so the run exits 3
        matches = tmp_path / "matches.csv"
        write_without(matches, ["score"])
        done = runner.invoke(main, [*command, str(matches), "--out", str(tmp_path / "plain")])
        assert done.exit_code == 0, done.output
        out = tmp_path / "dropped"
        result = runner.invoke(main, [*command, str(matches), "--drop-walkovers",
                                      "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert result.output.endswith(f"{matches}: missing required columns: score\n")
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command, field", [
        (["fit"], "winner_points"), (["report", "--alpha", "0.8722"], "category"),
    ], ids=["fit-required", "report-optional"])
    def test_empty_schema_value(self, runner, tmp_path, command, field):
        # an empty column name is refused, whether the field is required or not
        schema = tmp_path / "schema.cfg"
        schema.write_text(f"round=round\n{field}=\n")
        out = tmp_path / "run"
        result = runner.invoke(main, [command[0], MATCHES, *command[1:], "--schema", str(schema),
                                      "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert f"{schema}:2: schema field '{field}' names no column\n" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()


def _stray_quote_input(kind: str) -> tuple[list[str], list[str], int]:
    """The arguments before the input file, the input's lines (header first)
    and the data row that a stray quote opens."""
    archive = SAMPLE_MATCHES.read_text().splitlines()
    calendar = [f"{ev.week},{ev.category.value},{ev.draw_size}" for ev in default_calendar()]
    return {
        "small-archive": (["fit"], archive, 5),
        # the quoted field outgrows csv's field size limit before the file ends
        "large-archive": (["fit"], archive[:1] + archive[1:] * 27, 100),
        "rankings": (["report", MATCHES, "--alpha", "0.8722", "--rankings"],
                     SAMPLE_RANKINGS.read_text().splitlines(), 3),
        "calendar": (["simulate", "--calendar"], ["week,category,draw_size", *calendar], 2),
    }[kind]


class TestStrayQuote:
    """A quote that opens a field and never closes is a schema error naming
    the line its row starts on, not a silently shortened read."""

    @pytest.mark.parametrize("kind", ["small-archive", "large-archive", "rankings", "calendar"])
    def test_exit_code_and_line(self, runner, tmp_path, kind):
        args, lines, row = _stray_quote_input(kind)
        assert len(lines) > row + 1 and '"' not in "".join(lines)
        lines[row] = '"' + lines[row]
        path, out = tmp_path / "input.csv", tmp_path / "out"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, [*args, str(path), "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert f"{path}:{row + 1}: not valid CSV (" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()


def write_without(path: Path, columns: list[str], source: Path = SAMPLE_MATCHES) -> None:
    """A bundled sample file, the archive by default, without ``columns``."""
    with open(source, newline="", encoding="utf-8") as fp:
        rows = list(csv.DictReader(fp))
    kept = [name for name in rows[0] if name not in columns]
    with open(path, "w", newline="", encoding="utf-8") as fp:
        writer = csv.DictWriter(fp, kept, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


_RANKING_COLUMNS = ["ranking_date", "rank", "player", "points"]


def _maybe_not_utf8(draw, data: bytes) -> bytes:
    """``data`` with two non-UTF-8 bytes spliced in one time in ten."""
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff\xfe" + data[cut:]
    return data


@st.composite
def malformed_rankings(draw) -> bytes:
    """A ranking CSV with dropped or reordered columns, blank lines, bad or
    non-positive points, repeated (date, rank) keys and, sometimes, bytes
    that are not UTF-8."""
    columns = draw(st.permutations(_RANKING_COLUMNS))
    columns = columns[:draw(st.integers(3, 4))]
    values = {
        "ranking_date": st.sampled_from(["20150105", "2015-01-05", "20160104", "bad", ""]),
        "rank": st.sampled_from(["16", "32", "64", "32.0", "7", "-1", "x", "", "1e30"]),
        "player": st.sampled_from(["a", "b", " c ", ""]),
        "points": st.sampled_from(["2425", "1265", "773.5", "0", "-40", "nan", "inf",
                                   "-inf", "1e400", "abc", ""]),
    }
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            lines.append(",".join(draw(values[c]) for c in columns))
        else:
            lines.append("" if draw(st.booleans()) else "20150105,32")
    return _maybe_not_utf8(draw, ("\n".join(lines) + "\n").encode())


class TestRankingsFuzz:
    @settings(max_examples=40, deadline=None)
    @given(content=malformed_rankings())
    @example(content=b"ranking_date,rank,player,points\n"
                     b"20150105,16,a,2425\n20150105,32,b,0\n20150105,64,c,773\n")
    @example(content=b"ranking_date,rank,player,points\n20150105,16,a,2425\n"
                     b"20150105,32,b,1265\n20150105,64,c,nan\n20150105,32,d,5\n")
    def test_report_exit_code_no_traceback(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            rankings = Path(tmp) / "rankings.csv"
            rankings.write_bytes(content)
            out = Path(tmp) / "report"
            result = CliRunner().invoke(main, [
                "report", MATCHES, "--rankings", str(rankings), "--alpha", "0.8722",
                "--out", str(out),
            ])
            assert result.exit_code in (0, 3, 5), (result.output, result.exception)
            assert "Traceback" not in result.output
            if result.exit_code == 0:
                text = (out / "rank_stats.txt").read_text()
                assert "nan" not in text and "inf" not in text


def write_small_sim_config(tmp_path: Path) -> Path:
    calendar = tmp_path / "calendar.csv"
    lines = ["week,category,draw_size", "3,grand_slam,128",
             "10,masters_1000,64", "20,masters_1000,64"]
    lines += [f"{w},tour_500,32" for w in (15, 30)]
    lines += [f"{w},tour_250,32" for w in (5, 25, 35, 40, 45)]
    calendar.write_text("\n".join(lines) + "\n")
    config = tmp_path / "season.cfg"
    config.write_text(
        f"calendar={calendar.name}\n"
        "n_players=140\n"
        "n_seasons=2\n"
        "burn_in=0\n"
        "top30_mandatory=true\n"
        "n_500_choices=3\n"
        "n_250_choices=3\n"
    )
    return config


class TestSimulate:
    def test_simulate_writes_report(self, runner, tmp_path):
        config = write_small_sim_config(tmp_path)
        out = tmp_path / "sim"
        result = runner.invoke(main, [
            "simulate", "--config", str(config), "--seed", "42", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert (out / "seasons.csv").exists()
        summary = (out / "summary.txt").read_text()
        assert "1260" in summary  # rank-32 ideal-schedule reference
        header = (out / "seasons.csv").read_text().splitlines()[0]
        assert header == "season,week,player,points,rank"
        manifest = manifest_of(out)
        assert manifest["seed"] == 42

    def test_same_seed_identical_outputs(self, runner, tmp_path):
        config = write_small_sim_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            result = runner.invoke(main, [
                "simulate", "--config", str(config), "--seed", "7", "--out", str(out),
            ])
            assert result.exit_code == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_manifest_records_calendar_read(self, runner, tmp_path):
        # the config's calendar is an input; --calendar replaces it
        config = write_small_sim_config(tmp_path)
        calendar = tmp_path / "calendar.csv"
        override = tmp_path / "override.csv"
        override.write_text(calendar.read_text().replace("35,tour_250", "36,tour_250"))
        inputs = {}
        for name, extra in (("config", []), ("override", ["--calendar", str(override)])):
            out = tmp_path / name
            result = runner.invoke(main, ["simulate", "--config", str(config), "--seed", "3",
                                          *extra, "--out", str(out)])
            assert result.exit_code == 0, result.output
            inputs[name] = manifest_of(out)["inputs"]
        for name, read in (("config", calendar), ("override", override)):
            assert inputs[name] == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()
                                    for path in (config, read)}

    # numbers are ASCII without digit-group underscores
    @pytest.mark.parametrize("line", ["alpha=abc", "n_players=x", "burn_in=1.5",
                                      pytest.param("n_players=３００", id="n_players-fullwidth"),
                                      "alpha=0.8_7"])
    def test_bad_config_value_is_domain_error(self, runner, tmp_path, line):
        config = tmp_path / "season.cfg"
        config.write_text(f"n_seasons=2\n{line}\n", encoding="utf-8")
        result = runner.invoke(main, [
            "simulate", "--config", str(config), "--out", str(tmp_path / "sim"),
        ])
        assert result.exit_code == 5
        assert f"{config}:2" in result.output
        assert "Traceback" not in result.output

    def test_config_line_without_equals_is_schema_error(self, runner, tmp_path):
        config = tmp_path / "season.cfg"
        config.write_text("# header\nn_seasons 2\n")
        result = runner.invoke(main, [
            "simulate", "--config", str(config), "--out", str(tmp_path / "sim"),
        ])
        assert result.exit_code == 3
        assert f"{config}:2" in result.output

    @pytest.mark.parametrize("args, named", [
        (["--seed", "-1"], "rng_seed"),
        (["--points-floor", "inf"], "points_floor"),
        (["--alpha", "inf"], "alpha"),
    ], ids=["seed-1", "floor-inf", "alpha-inf"])
    def test_bad_season_value_is_domain_error(self, runner, tmp_path, args, named):
        result = runner.invoke(main, ["simulate", *args, "--out", str(tmp_path / "sim")])
        assert result.exit_code == 5, result.output
        assert named in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("extra, seasons_sha, summary_sha", [
        ([], "aafc3bd7645e67a6d014cfcba9e70ab034a92d800cb5c6987399cba3b99aafa4",
         "3db55d56f2d7a4ed93407ece47068d3bcaf5595cf20105b932a48336eda3fbb7"),
        (["--no-top30-mandatory", "--max-events", "5"],
         "3f6791547ed23a396c29438ca2386e36983c0cbd7b7f072abab8dd64594804d0",
         "39c743d9a809888e7a3a20fb69ab0586dc264e676bd891f6864b527edb6b3474"),
    ], ids=["top30", "free-max5"])
    def test_golden_digests(self, runner, tmp_path, extra, seasons_sha, summary_sha):
        # pinned outputs: a change to the season engine must keep every byte
        out = tmp_path / "sim"
        result = runner.invoke(main, [
            "simulate", "--seed", "99", "--players", "150", "--seasons", "2", *extra,
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert hashlib.sha256((out / "seasons.csv").read_bytes()).hexdigest() == seasons_sha
        assert hashlib.sha256((out / "summary.txt").read_bytes()).hexdigest() == summary_sha

    @pytest.mark.parametrize("content, code, named", [
        ("week,category,draw_size\n3,grand_slam,96\n", 5, "96"),
        ("week,category,draw_size\n3,slam,128\n", 5, "'slam'"),
        ("week,category\n3,grand_slam\n", 3, "draw_size"),
        ("week,category,draw_size\nx,grand_slam,128\n", 5, "'x'"),
        ("week,category,draw_size\n1_0,tour_250,3_2\n", 5, "'1_0'"),
        ("week,category,draw_size\n１０,tour_250,32\n", 5, "'１０'"),
        ("week,category,draw_size\n53,grand_slam,128\n", 5, "calendar week 53 outside 1..52"),
        ("week,category,draw_size\n", 5, "calendar is empty"),
        # 64 players fill each week's draw, but the top 30 may enter only
        # their picked 250s, so week 1 runs short
        ("week,category,draw_size\n" + "".join(f"{w},tour_250,64\n" for w in range(1, 8)),
         5, "week 1: only 47 entrants for a 64-draw event"),
    ], ids=["draw96", "category", "no-draw-size", "week", "week-underscore", "week-fullwidth",
            "week53", "header-only", "short-draw"])
    def test_bad_calendar_exit_code(self, runner, tmp_path, content, code, named):
        calendar = tmp_path / "cal.csv"
        calendar.write_text(content, encoding="utf-8")
        result = runner.invoke(main, [
            "simulate", "--players", "64", "--calendar", str(calendar),
            "--out", str(tmp_path / "sim"),
        ])
        assert result.exit_code == code, result.output
        assert named in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "sim").exists()

    def test_non_utf8_config_is_schema_error(self, runner, tmp_path):
        config = tmp_path / "season.cfg"
        config.write_bytes(b"# caf\xe9\nn_seasons=2\n")
        result = runner.invoke(main, [
            "simulate", "--config", str(config), "--out", str(tmp_path / "sim"),
        ])
        assert result.exit_code == 3
        assert f"{config}: not UTF-8" in result.output
        assert "Traceback" not in result.output

    def test_infeasible_pool_clean_error(self, runner, tmp_path):
        config = write_small_sim_config(tmp_path)
        out = tmp_path / "sim"
        result = runner.invoke(main, [
            "simulate", "--config", str(config), "--players", "50", "--out", str(out),
        ])
        assert result.exit_code == 5
        assert "pool" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("players, burn_in", [(50, 0), (63, 2), (0, 0)])
    def test_pool_short_of_rank_64_fails_before_run(self, runner, tmp_path, monkeypatch,
                                                     players, burn_in):
        import atppoints.cli

        def never(*args):
            raise AssertionError("run_season called")

        monkeypatch.setattr(atppoints.cli, "run_season", never)
        calendar = tmp_path / "cal.csv"
        calendar.write_text("week,category,draw_size\n"
                            + "".join(f"{w},tour_250,32\n" for w in range(1, 53)))
        result = runner.invoke(main, [
            "simulate", "--players", str(players), "--no-top30-mandatory", "--seasons", "24",
            "--burn-in", str(burn_in), "--calendar", str(calendar), "--out", str(tmp_path / "sim"),
        ])
        assert result.exit_code == 5, result.output
        assert (f"no final standing for season {burn_in + 1}, rank 64 from a player pool "
                f"of {players}") in result.output
        assert not (tmp_path / "sim").exists()

    def test_bad_config_reported_before_short_pool(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--players", "50", "--points-floor", "0",
                                      "--out", str(tmp_path / "sim")])
        assert result.exit_code == 5, result.output
        assert "points_floor must be positive and finite" in result.output


_BANDS_16_32 = "ranking_date,rank,player,points\n20150105,16,a,2425\n20150105,32,b,1265\n"


class TestFailedRunWritesNothing:
    # each run fails after its inputs load; none may leave an output directory
    @pytest.mark.parametrize("args, files, code, named", [
        (["report", MATCHES, "--alpha", "nan"], {}, 5, ["alpha"]),
        (["report", MATCHES, "--alpha", "0.8722", "--ratio-bins", "1"], {}, 5, ["n_bins"]),
        (["report", MATCHES, "--alpha", "0.8722", "--rankings", "r.csv"],
         {"r.csv": _BANDS_16_32 + "20150105,32,c,1200\n20150105,64,d,773\n"},
         3, ["duplicate rank 32"]),
        (["report", MATCHES, "--alpha", "0.8722", "--rankings", "r.csv"],
         {"r.csv": _BANDS_16_32}, 5, ["rank band"]),
        # 50 players fill every week, but hold no rank 64 for the summary
        (["simulate", "--players", "50", "--no-top30-mandatory", "--calendar", "cal.csv"],
         {"cal.csv": "week,category,draw_size\n"
                     + "".join(f"{w},tour_250,32\n" for w in range(1, 53))},
         5, ["season 1, rank 64"]),
        # the default calendar's week 1 needs 96 entrants, and the top 30
        # enter only their planned events
        (["simulate", "--players", "100"], {}, 5, ["week 1", "player pool of 100"]),
        (["report", MATCHES, "--alpha", "0.8722", "--prob-bins", "1"], {}, 5, ["n_bins"]),
        (["simulate", "--seasons", "0"], {}, 5, ["n_seasons must be at least 1"]),
        (["simulate", "--n500", "-1"], {}, 5, ["optional-event choices must be nonnegative"]),
        (["simulate", "--max-events", "0"], {}, 5, ["max_events_per_season must be at least 1"]),
        (["simulate", "--config", "s.cfg"], {"s.cfg": "top30_mandatory=maybe\n"}, 5,
         ["s.cfg:1: top30_mandatory must be true or false"]),
        (["evaluate", MATCHES, "--params", "p.txt"], {"p.txt": "alpha=0.8722\nn_matches=-3\n"},
         5, ["n_matches"]),
        (["simulate", "--players", "-1"], {}, 5, ["n_players must be nonnegative, got -1"]),
        (["simulate", "--config", "s.cfg"], {"s.cfg": "n_seasons=2\ncalendar=\n"}, 5,
         ["s.cfg:2: calendar names no file"]),
        # a key given twice is refused in every key=value file
        (["simulate", "--config", "s.cfg"], {"s.cfg": "n_seasons=2\nn_seasons=3\n"}, 3,
         ["s.cfg:2: key 'n_seasons' repeats line 1"]),
        (["evaluate", MATCHES, "--params", "p.txt"], {"p.txt": "alpha=0.5\nalpha=0.9\n"}, 3,
         ["p.txt:2: key 'alpha' repeats line 1"]),
        (["fit", MATCHES, "--schema", "s.cfg"],
         {"s.cfg": "date=tourney_date\n# again\n date = tourney_date\n"}, 3,
         ["s.cfg:3: key 'date' repeats line 1"]),
    ], ids=["alpha-nan", "ratio-bins-1", "duplicate-rank", "no-rank-64", "no-rank-64-sim",
            "short-pool", "prob-bins-1", "seasons-0", "n500-negative", "max-events-0",
            "config-bool", "params-n-matches", "players-negative", "config-calendar-empty",
            "config-key-twice", "params-key-twice", "schema-key-twice"])
    def test_exit_code_and_no_output_dir(self, runner, tmp_path, monkeypatch,
                                         args, files, code, named):
        monkeypatch.chdir(tmp_path)
        for name, content in files.items():
            Path(name).write_text(content)
        result = runner.invoke(main, [*args, "--out", "out"])
        assert result.exit_code == code, result.output
        for text in named:
            assert text in result.output
        assert "Traceback" not in result.output
        assert not Path("out").exists()

    @pytest.mark.parametrize("args", [
        ["fit", MATCHES], ["evaluate", MATCHES, "--alpha", "0.8722"],
        ["report", MATCHES, "--alpha", "0.8722"], ["simulate", "--config", "season.cfg"],
        ["ingest-dump", MATCHES],
    ], ids=["fit", "evaluate", "report", "simulate", "ingest-dump"])
    def test_unhashable_input(self, runner, tmp_path, monkeypatch, args):
        # the manifest hashes the inputs after every table is built
        monkeypatch.chdir(tmp_path)
        write_small_sim_config(tmp_path)

        def unreadable(path):
            raise OSError(f"cannot read {path}")

        monkeypatch.setattr(atppoints.manifest, "sha256_file", unreadable)
        result = runner.invoke(main, [*args, "--out", "out"])
        assert result.exit_code == 4, result.output
        assert "i/o error: cannot read" in result.output
        assert "Traceback" not in result.output
        assert not Path("out").exists()


# each key's valid values come first; n_players stays at most 400 and
# n_seasons at most 2, so no example runs long
_CONFIG_VALUES = {
    "alpha": (["0.8722", "0", "2"], ["-1", "nan", "inf", "abc", ""]),
    "rng_seed": (["0", "7"], ["-1", "1.5", "x"]),
    "n_players": (["140", "200", "400"], ["0", "-5", "x"]),
    "n_seasons": (["1", "2"], ["0", "-1", "nan"]),
    "burn_in": (["0", "1"], ["-1", "x"]),
    "points_floor": (["1.0", "7.5"], ["0", "-1", "nan", "inf", "x"]),
    "top30_mandatory": (["true", "false"], ["yes"]),
    "n_500_choices": (["3", "0", "13"], ["-1", "x"]),
    "n_250_choices": (["3", "6", "40"], ["-1", "x"]),
    "max_events_per_season": (["18", "5"], ["0", "-1", "x"]),
    "calendar": (["calendar.csv"], ["missing.csv", ""]),
    "alpa": ([], ["0.9"]),
}

_CALENDAR_VALUES = {
    "week": (["1", "3", "20", "52"], ["0", "53", "x", ""]),
    "category": (["grand_slam", "masters_1000", "tour_500", "tour_250"], ["slam", ""]),
    "draw_size": (["32", "64", "128"], ["0", "48", "96", "x"]),
}


def _value(draw, choices: tuple[list[str], list[str]]) -> str:
    """A valid value four times in five, where the key has any."""
    valid, invalid = choices
    return draw(st.sampled_from(valid if valid and draw(st.integers(0, 4)) else invalid))


def _key_value_file(draw, values: dict[str, tuple[list[str], list[str]]],
                    taken: tuple[str, ...] = ()) -> bytes:
    """A key=value file over distinct keys of ``values`` other than those
    ``taken``, one line in twenty missing its ``=`` and, sometimes, bytes
    that are not UTF-8.  One file in ten repeats one of its keys, which is
    rejected before any value is read."""
    keys = draw(st.lists(st.sampled_from(sorted(set(values) - set(taken))),
                         max_size=6, unique=True))
    if keys and not draw(st.integers(0, 9)):
        keys.insert(draw(st.integers(0, len(keys))), draw(st.sampled_from(keys)))
    lines = []
    for key in keys:
        value = _value(draw, values[key])
        lines.append(f"{key}={value}" if draw(st.integers(0, 19)) else f"{key} {value}")
    return _maybe_not_utf8(draw, ("\n".join(lines) + "\n").encode())


@st.composite
def malformed_season_config(draw) -> bytes:
    """A season config with junk keys, lines missing ``=`` and bad, nan,
    inf and negative values."""
    return _key_value_file(draw, _CONFIG_VALUES)


@st.composite
def malformed_calendar(draw) -> bytes:
    """A calendar CSV with dropped or reordered columns, draw sizes outside
    32/64/128, unknown categories and, sometimes, bytes that are not UTF-8."""
    columns = draw(st.permutations(list(_CALENDAR_VALUES)))
    columns = columns[:draw(st.sampled_from([2, 3, 3, 3]))]
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 8))):
        lines.append(",".join(_value(draw, _CALENDAR_VALUES[c]) for c in columns))
    return _maybe_not_utf8(draw, ("\n".join(lines) + "\n").encode())


class TestSeasonInputFuzz:
    @settings(max_examples=30, deadline=None)
    @given(config=malformed_season_config(), calendar=st.none() | malformed_calendar())
    @example(config=b"rng_seed=-1\n", calendar=None)
    @example(config=b"points_floor=inf\n", calendar=None)
    def test_simulate_exit_code_no_traceback(self, config, calendar):
        with tempfile.TemporaryDirectory() as tmp:
            config_path = Path(tmp) / "season.cfg"
            config_path.write_bytes(config)
            args = ["simulate", "--config", str(config_path), "--out", str(Path(tmp) / "sim")]
            if calendar is not None:
                calendar_path = Path(tmp) / "calendar.csv"
                calendar_path.write_bytes(calendar)
                args += ["--calendar", str(calendar_path)]
            result = CliRunner().invoke(main, args)
            assert result.exit_code in (0, 2, 3, 4, 5), (result.output, result.exception)
            assert "Traceback" not in result.output


# archive columns under their default names; each value list offers valid
# values first, so most rows parse and some reach the model
_ARCHIVE_VALUES = {
    "tourney_date": (["20150105", "2015-03-02", "20161231"], ["bad", "", "20151340"]),
    "tourney_level": (["G", "M", "A", "A"], ["Q", "", "g"]),
    "round": (["R32", "QF", "F", "R128"], ["Q1", "", "RR", '"']),
    "winner_rank_points": (["2425", "1265", "773.5", "10"], ["0", "-40", "nan", "inf", "1e400",
                                                          "1e-300", "abc", ""]),
    "loser_rank_points": (["1800", "650", "31", "5000"], ["0", "-1", "nan", "-inf", "x", ""]),
    "winner_rank": (["16", "32", "7"], ["x", "", "1e30", "-1"]),
    "loser_rank": (["64", "100"], ["x", ""]),
    "winner_id": (["1", "2", " 3 "], [""]),
    "loser_id": (["4", "5"], [""]),
    "tourney_id": (["2015-1", "2015-2"], [""]),
    "score": (["6-4 6-4", "W/O", "RET"], ["", '"']),
    "category": (["tour_250", "tour_500", "grand_slam"], ["slam", ""]),
}

_SCHEMA_VALUES = {
    **{key: (sorted(_ARCHIVE_VALUES), ["missing_col", ""])
       for key in ("date", "level", "round", "winner_points", "loser_points", "winner_id",
                   "winner_rank", "category", "tournament_id", "score")},
    "draw_size": (["draw_size"], ["missing_col"]),
    "points": ([], ["winner_rank_points"]),
}

_PARAMS_VALUES = {
    "alpha": (["0.8722", "2", "1e-300"], ["0", "-1", "nan", "inf", "1e400", "abc", "", "None"]),
    "fitted_e2": (["0.2", "", "None"], ["1.5", "-0.1", "nan", "x"]),
    "n_matches": (["184", "", "None", "0"], ["-3", "1.5", "1e400", "x"]),
    "dataset_fingerprint": (["abc123", ""], ["a=b"]),
    "date_from": (["2015-01-01", ""], ["bad"]),
    "bogus": ([], ["1"]),
}


@st.composite
def malformed_archive(draw) -> bytes:
    """A match archive with dropped or reordered columns, unparsable dates,
    missing, zero, negative, nan, inf and overflowing points, ragged rows and,
    sometimes, bytes that are not UTF-8."""
    columns = draw(st.permutations(sorted(_ARCHIVE_VALUES)))
    columns = columns[draw(st.sampled_from([0, 0, 0, 1, 4])):]
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 10))):
        row = [_value(draw, _ARCHIVE_VALUES[c]) for c in columns]
        lines.append(",".join(row[:draw(st.sampled_from([len(row)] * 5 + [2]))]))
    return _maybe_not_utf8(draw, ("\n".join(lines) + "\n").encode())


@st.composite
def malformed_schema(draw) -> bytes:
    """A schema file with unknown fields, remaps to absent or wrong columns
    and lines missing ``=``."""
    return _key_value_file(draw, _SCHEMA_VALUES)


@st.composite
def malformed_params(draw) -> bytes:
    """A params file with unknown keys and bad, nan, inf, negative and
    overflowing values; most name an alpha, so the later checks are reached."""
    if not draw(st.integers(0, 4)):
        return _key_value_file(draw, _PARAMS_VALUES)
    alpha = f"alpha={_value(draw, _PARAMS_VALUES['alpha'])}\n"
    return alpha.encode() + _key_value_file(draw, _PARAMS_VALUES, taken=("alpha",))


class TestArchiveInputFuzz:
    @settings(max_examples=40, deadline=None)
    @given(archive=malformed_archive(),
           schema=st.none() | malformed_schema(),
           command=st.sampled_from(["fit", "ingest-dump"]))
    @example(archive=b"tourney_date,tourney_level,round,winner_rank_points,loser_rank_points\n"
                     b"20150105,A,R32,1e400,650\n20150105,A,R32,2425,-inf\n",
             schema=None, command="fit")
    @example(archive=b"tourney_date,tourney_level,round,winner_rank_points,loser_rank_points\n"
                     b"20150105,A,R32,2425,650\n",
             schema=b"date=missing_col\n", command="ingest-dump")
    def test_archive_exit_code_no_traceback(self, archive, schema, command):
        with tempfile.TemporaryDirectory() as tmp:
            archive_path = Path(tmp) / "matches.csv"
            archive_path.write_bytes(archive)
            args = [command, str(archive_path), "--out", str(Path(tmp) / "out")]
            if schema is not None:
                schema_path = Path(tmp) / "schema.cfg"
                schema_path.write_bytes(schema)
                args += ["--schema", str(schema_path)]
            result = CliRunner().invoke(main, args)
            assert result.exit_code in (0, 2, 3, 4, 5), (result.output, result.exception)
            assert "Traceback" not in result.output

    @settings(max_examples=30, deadline=None)
    @given(params=malformed_params())
    def test_evaluate_params_exit_code_no_traceback(self, params):
        with tempfile.TemporaryDirectory() as tmp:
            params_path = Path(tmp) / "params.txt"
            params_path.write_bytes(params)
            result = CliRunner().invoke(main, ["evaluate", MATCHES, "--params", str(params_path)])
            assert result.exit_code in (0, 2, 3, 4, 5), (result.output, result.exception)
            assert "Traceback" not in result.output


def _load_outcome(load, path: Path, **kwargs):
    """``load([path])``, or the text of the SchemaError it raises."""
    try:
        return load([path], **kwargs)
    except SchemaError as exc:
        return str(exc)


def _same_outcome(whole, chunked) -> bool:
    if isinstance(whole, str) or isinstance(chunked, str):
        return whole == chunked
    if isinstance(whole, tuple):  # a raw table and its participation table
        return tables_equal(whole[0], chunked[0]) and whole[1] == chunked[1]
    return tables_equal(whole, chunked)


class TestChunkedReadFuzz:
    """The fuzzed inputs load alike whole and 3 rows at a time."""

    @settings(max_examples=40, deadline=None)
    @given(archive=malformed_archive(), schema=st.none() | malformed_schema(),
           participation=st.booleans())
    def test_archive_loads_alike(self, archive, schema, participation):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "matches.csv"
            path.write_bytes(archive)
            columns = None
            if schema is not None:
                (Path(tmp) / "schema.cfg").write_bytes(schema)
                columns = _load_outcome(lambda paths: load_schema(paths[0]),
                                        Path(tmp) / "schema.cfg")
            load = tallied if participation else load_raw_rows
            kwargs = dict(schema=columns if isinstance(columns, dict) else None)
            whole = _load_outcome(load, path, **kwargs)
            with mock.patch.object(atppoints.ingest, "_CHUNK_ROWS", 3):
                chunked = _load_outcome(load, path, **kwargs)
            assert _same_outcome(whole, chunked)
            assert gc.isenabled()

    @settings(max_examples=40, deadline=None)
    @given(content=malformed_rankings())
    def test_rankings_load_alike(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rankings.csv"
            path.write_bytes(content)
            whole = _load_outcome(load_rankings, path)
            with mock.patch.object(atppoints.ingest, "_CHUNK_ROWS", 3):
                chunked = _load_outcome(load_rankings, path)
            assert _same_outcome(whole, chunked)
            assert gc.isenabled()


class TestIngestDump:
    def test_dump_and_counters(self, runner, tmp_path):
        out = tmp_path / "dump"
        result = runner.invoke(main, ["ingest-dump", MATCHES, "--out", str(out)])
        assert result.exit_code == 0
        assert "kept" in result.output
        lines = (out / "observations.csv").read_text().splitlines()
        assert lines[0] == "date,level,round,winner_points,loser_points"
        assert len(lines) == 1 + 184  # golden kept count
        assert (out / "manifest.json").exists()

    def test_golden_digests(self, runner, tmp_path):
        # pinned output: a change to the archive reader or the writer must keep every byte
        out = tmp_path / "dump"
        result = runner.invoke(main, ["ingest-dump", MATCHES, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert hashlib.sha256((out / "observations.csv").read_bytes()).hexdigest() == (
            "a3c21a8bab8d251d44fdebbc9c001fe2adc2ca7ceca274f11a99b542002417db")


class TestManifestInputs:
    """A --schema or --params file is an input: its sha256 is in the manifest."""

    COMMANDS = {
        "fit": ["fit", MATCHES],
        "evaluate": ["evaluate", MATCHES, "--alpha", "0.8722"],
        "report": ["report", MATCHES, "--alpha", "0.8722"],
        "ingest-dump": ["ingest-dump", MATCHES],
    }

    def inputs_of(self, runner, out: Path, args: list[str]) -> dict:
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 0, result.output
        return manifest_of(out)["inputs"]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_schema_file_hashed(self, runner, tmp_path, command):
        inputs = []
        for k, text in enumerate(["round=round\n", "# the stock layout\nround=round\n"]):
            schema = tmp_path / f"schema{k}.cfg"
            schema.write_text(text)
            got = self.inputs_of(runner, tmp_path / f"out{k}",
                                 [*self.COMMANDS[command], "--schema", str(schema)])
            assert got[str(schema)] == hashlib.sha256(text.encode()).hexdigest()
            inputs.append(sorted(got.values()))
        assert inputs[0] != inputs[1]

    @pytest.mark.parametrize("command", ["evaluate", "report"])
    def test_params_file_hashed(self, runner, tmp_path, command):
        args = [a for a in self.COMMANDS[command] if a not in ("--alpha", "0.8722")]
        inputs = []
        for k, text in enumerate(["alpha=0.8722\n", "alpha=0.8722\nn_matches=184\n"]):
            params = tmp_path / f"params{k}.txt"
            params.write_text(text)
            got = self.inputs_of(runner, tmp_path / f"out{k}", [*args, "--params", str(params)])
            assert got[str(params)] == hashlib.sha256(text.encode()).hexdigest()
            inputs.append(sorted(got.values()))
        assert inputs[0] != inputs[1]

    def test_fingerprint_over_match_files_only(self, runner, tmp_path):
        schema = tmp_path / "schema.cfg"
        schema.write_text("round=round\n")
        self.inputs_of(runner, tmp_path / "plain", self.COMMANDS["fit"])
        self.inputs_of(runner, tmp_path / "schema", [*self.COMMANDS["fit"], "--schema", str(schema)])
        assert tree_bytes(tmp_path / "plain") == tree_bytes(tmp_path / "schema")


class TestManifestFlags:
    """Each command's manifest `flags`, `inputs` (paths, in file order) and
    `seed`, pinned for runs in a directory holding every input file."""

    INGEST = {"date_from": None, "date_to": None, "drop_walkovers": False,
              "include_qualifying": False, "levels": "A,D,F,G,M,O", "schema": None}
    SEASON = {"alpha": 0.8722, "burn_in": 0, "calendar": None, "config": None,
              "max_events": 18, "n250": 3, "n500": 3, "players": 300,
              "points_floor": 1.0, "seasons": 1, "seed": 0, "top30_mandatory": True}
    CASES = {
        "fit": (
            ["fit", "matches.csv", "--from", "2014-03-01", "--to", "2015-06-30",
             "--levels", "A,G,M", "--include-qualifying", "--drop-walkovers",
             "--schema", "schema.cfg", "--search-lo", "0.05", "--tol", "1e-05"],
            {"date_from": "2014-03-01", "date_to": "2015-06-30", "drop_walkovers": True,
             "include_qualifying": True, "levels": "A,G,M", "schema": "schema.cfg",
             "search_hi": 5.0, "search_lo": 0.05, "tol": 1e-05},
            ["matches.csv", "schema.cfg"], None),
        "evaluate": (
            ["evaluate", "matches.csv", "--params", "params.txt", "--schema", "schema.cfg"],
            {**INGEST, "alpha": 0.8722, "schema": "schema.cfg"},
            ["matches.csv", "params.txt", "schema.cfg"], None),
        "report": (
            ["report", "matches.csv", "--rankings", "rankings.csv", "--params", "params.txt"],
            {**INGEST, "alpha": 0.8722, "prob_bins": 20, "rankings": ["rankings.csv"],
             "ratio_bins": 40},
            ["matches.csv", "params.txt", "rankings.csv"], None),
        "ingest-dump": (
            ["ingest-dump", "matches.csv", "--levels", "G,M", "--from", "2014-06-01"],
            {**INGEST, "date_from": "2014-06-01", "levels": "G,M"},
            ["matches.csv"], None),
        "simulate": (["simulate"], SEASON, [], 0),
        "simulate-every-flag": (
            ["simulate", "--config", "sim/season.cfg", "--alpha", "0.9", "--seed", "5",
             "--players", "150", "--seasons", "3", "--burn-in", "1", "--n500", "4",
             "--n250", "2", "--max-events", "16", "--no-top30-mandatory",
             "--points-floor", "2.5"],
            {"alpha": 0.9, "burn_in": 1, "calendar": None, "config": "sim/season.cfg",
             "max_events": 16, "n250": 2, "n500": 4, "players": 150, "points_floor": 2.5,
             "seasons": 3, "seed": 5, "top30_mandatory": False},
            ["sim/calendar.csv", "sim/season.cfg"], 5),
        "simulate-calendar": (
            ["simulate", "--config", "sim/season.cfg", "--calendar", "override.csv"],
            {**SEASON, "calendar": "override.csv", "config": "sim/season.cfg",
             "players": 140, "seasons": 2},
            ["override.csv", "sim/season.cfg"], 0),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_manifest_pinned(self, runner, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        shutil.copy(SAMPLE_MATCHES, "matches.csv")
        shutil.copy(SAMPLE_RANKINGS, "rankings.csv")
        Path("schema.cfg").write_text("round=round\n")
        Path("params.txt").write_text("alpha=0.8722\n")
        Path("sim").mkdir()
        write_small_sim_config(Path("sim"))  # calendar=calendar.csv, relative to the config
        shutil.copy("sim/calendar.csv", "override.csv")
        args, flags, inputs, seed = self.CASES[case]
        result = runner.invoke(main, [*args, "--out", "out"])
        assert result.exit_code == 0, result.output
        manifest = manifest_of(Path("out"))
        assert manifest["flags"] == {**flags, "out": "out"}
        assert list(manifest["inputs"]) == inputs
        assert manifest["seed"] == seed
