"""Command-line frontend: fit, predict, evaluate, report, simulate, ingest-dump.

Every command that writes files drops a manifest.json beside its outputs
recording the flags, input hashes, seed, and tool version.  The manifest's
``flags`` hold every option of the command as given, with ``alpha`` resolved
from ``--params`` and, for ``simulate``, the final season-config values; the
match files and ``--params`` are not flags but are hashed in ``inputs``.
Each flag is declared once, in its ``click.option``.  A command builds
every output and its manifest, then ``_write_run`` makes the directory and
writes them, so a command that fails on its inputs leaves no output behind.
Data files are byte-reproducible for identical inputs and seeds; only the
manifest timestamp differs between reruns.

Start-up: importing this module loads click and no numpy, so ``--version``,
``--help`` and usage errors stay cheap.  Commands call every library name
as ``lib.<name>``, an attribute of this module: its first lookup imports
the defining module and binds all of that module's ``LIBRARY`` names here,
so ``predict`` loads the numpy-free ``formula`` module alone and ``fit``
never loads ``report`` or ``season``; ``simulate`` loads the CSV reader
(``ingest``, and ``model`` with it) only for a calendar file.  A name set
beforehand is kept, so a function put in its place (say, a timing wrapper)
is the one commands call.

Exit codes: 0 success, 2 usage, 3 schema, 4 I/O, 5 domain.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from . import __version__, _lazy
from .defaults import (DEFAULT_LEVELS, DEFAULT_PROB_BINS, DEFAULT_RATIO_BINS,
                       DEFAULT_SEARCH_HI, DEFAULT_SEARCH_LO, DEFAULT_TOL)
from .errors import DomainError, SchemaError

#: library module -> the names the commands call from it
LIBRARY = {
    "formula": ("ModelParams", "_parse_number", "_read_key_values", "predict"),
    # no command calls load_raw_rows; bench/spans.py looks it up here
    "ingest": ("dump_observations", "load_matches", "load_raw_rows", "load_rankings",
               "load_schema"),
    "manifest": ("build_manifest", "dataset_fingerprint", "write_manifest"),
    "model": ("baseline_brier", "brier_score", "fit_alpha"),
    "points": ("RANK_BANDS", "expected_points"),
    "report": ("ParticipationTally", "bin_by_ratio", "calibration_curve",
               "format_participation", "format_rank_stats", "participation_table",
               "rank_stats", "write_curve_csv", "write_curve_svg", "write_participation_csv",
               "write_rank_stats_csv"),
    "season": ("SeasonConfig", "load_calendar_file", "load_season_config", "run_season"),
}


__getattr__ = _lazy(globals(), LIBRARY)


lib = sys.modules[__name__]  # this module (``__main__`` under ``python -m``)

EXIT_SCHEMA = 3
EXIT_IO = 4
EXIT_DOMAIN = 5

#: simulate flag -> the SeasonConfig field it overrides
SEASON_FLAGS = {"alpha": "alpha", "seed": "rng_seed", "players": "n_players",
                "seasons": "n_seasons", "burn_in": "burn_in", "n500": "n_500_choices",
                "n250": "n_250_choices", "max_events": "max_events_per_season",
                "top30_mandatory": "top30_mandatory", "points_floor": "points_floor"}


def handle_errors(fn):
    """A command body whose library errors map to exit codes."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SchemaError as exc:
            click.echo(f"schema error: {exc}", err=True)
            sys.exit(EXIT_SCHEMA)
        except DomainError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DOMAIN)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_IO)

    return wrapper


def ingest_options(fn):
    fn = click.option("--from", "date_from", type=click.DateTime(["%Y-%m-%d"]),
                      default=None, help="Keep matches on or after this date.")(fn)
    fn = click.option("--to", "date_to", type=click.DateTime(["%Y-%m-%d"]),
                      default=None, help="Keep matches on or before this date.")(fn)
    fn = click.option("--levels", default=",".join(sorted(DEFAULT_LEVELS)),
                      show_default=True, help="Comma-separated level letters to keep.")(fn)
    fn = click.option("--include-qualifying", is_flag=True,
                      help="Keep qualifying-round matches.")(fn)
    fn = click.option("--drop-walkovers", is_flag=True,
                      help="Drop rows whose score marks a walkover.")(fn)
    fn = click.option("--schema", type=click.Path(exists=True, dir_okay=False),
                      default=None, help="key=value column-mapping file.")(fn)
    return click.argument("match_files", nargs=-1, required=True,
                          type=click.Path(exists=True, dir_okay=False))(fn)


def _scope(date_from, date_to, levels, include_qualifying, drop_walkovers, schema) -> dict:
    """load_matches keyword arguments from the six ingest options.  An empty
    or lower-case level letter or a --from later than --to is a usage error;
    commands call this before their first ``lib`` lookup, so that error loads
    no library."""
    letters = frozenset(letter.strip() for letter in levels.split(","))
    if "" in letters:
        raise click.BadParameter(f"empty level letter in {levels!r}", param_hint="'--levels'")
    if any(letter != letter.upper() for letter in letters):
        raise click.BadParameter(f"lower-case level letter in {levels!r}",
                                 param_hint="'--levels'")
    if date_from and date_to and date_from > date_to:
        raise click.UsageError(f"--from {date_from.date()} is later than --to {date_to.date()}")
    dates = tuple(d.date() if d else None for d in (date_from, date_to))
    return dict(date_range=dates, levels=letters,
                include_qualifying=include_qualifying, drop_walkovers=drop_walkovers,
                schema=lib.load_schema(schema) if schema else None)


def _load_matches(match_files, selection: dict, **extra):
    """lib.load_matches, with a stderr warning for each --levels letter given
    on the command line that no row carries (the default set never warns)."""
    observations, report = lib.load_matches(match_files, **selection, **extra)
    if click.get_current_context().get_parameter_source("levels") is ParameterSource.COMMANDLINE:
        for letter in report.absent_levels:
            click.echo(f"warning: no row of the match files has level {letter}", err=True)
    return observations, report


def _manifest(command: str, files, resolved: dict | None = None, rng_seed: int | None = None):
    """The run's manifest.  ``flags`` are the command's parameters as click
    resolved them, minus the match files and --params (both hashed in
    ``inputs``), with the ``resolved`` values on top; ``inputs`` hash each of
    ``files`` that was given."""
    flags = {key: value for key, value in click.get_current_context().params.items()
             if key not in ("match_files", "params")}
    return lib.build_manifest(command, {**flags, **(resolved or {})},
                              [path for path in files if path], seed=rng_seed)


def _write_run(out: str, manifest: dict, files: dict) -> Path:
    """Make the output directory ``out``, write ``files`` in order, each name
    to its text or by a function of the open file (a ``.csv`` opens with
    ``newline=""``), and write ``manifest`` last."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        with open(out_dir / name, "w", encoding="utf-8",
                  newline="" if name.endswith(".csv") else None) as fp:
            if isinstance(content, str):
                fp.write(content)
            else:
                content(fp)
    lib.write_manifest(manifest, out_dir)
    return out_dir


def _scores(alpha: float, e2: float, baseline: float, n: int) -> str:
    return (f"alpha        {alpha:.6f}\n"
            f"e2           {e2:.6f}\n"
            f"baseline_e2  {baseline:.6f}\n"
            f"n_matches    {n}\n")


def read_params_file(path: str | Path) -> lib.ModelParams:
    fields = {key: value for _, key, value in lib._read_key_values(path)}

    def number(key: str, kind):
        text = fields.get(key, "")
        if key != "alpha" and text in ("", "None"):
            return None
        try:
            return lib._parse_number(kind, text)
        except ValueError:
            raise SchemaError(f"{path}: missing or invalid {key} field") from None

    return lib.ModelParams(alpha=number("alpha", float), fitted_e2=number("fitted_e2", float),
                           n_matches=number("n_matches", int))


def _resolve_alpha(alpha: float | None, params: str | None) -> float:
    if alpha is not None:
        return alpha
    if params is not None:
        return read_params_file(params).alpha
    raise click.UsageError("either --alpha or --params is required")


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Ranking-point ratio model: fit, evaluate, report, and simulate."""


@main.command()
@ingest_options
@click.option("--search-lo", default=DEFAULT_SEARCH_LO, show_default=True)
@click.option("--search-hi", default=DEFAULT_SEARCH_HI, show_default=True)
@click.option("--tol", default=DEFAULT_TOL, show_default=True)
@click.option("--out", required=True, type=click.Path(file_okay=False))
@handle_errors
def fit(match_files, search_lo, search_hi, tol, out, **scope):
    """Fit the exponent alpha by minimizing the Brier score."""
    selection = _scope(**scope)
    observations, report = _load_matches(match_files, selection)
    if not observations:
        raise DomainError("no matches after filtering")
    params = lib.fit_alpha(observations, search_lo=search_lo, search_hi=search_hi, tol=tol)
    if min(params.alpha - search_lo, search_hi - params.alpha) <= tol:
        click.echo(f"warning: alpha={params.alpha:.6f} is within tol of the search bound "
                   f"[{search_lo}, {search_hi}]; the minimum may lie outside it", err=True)
    baseline = lib.baseline_brier(observations)
    manifest = _manifest("fit", [*match_files, scope["schema"]])
    fingerprint = lib.dataset_fingerprint([manifest["inputs"][str(p)] for p in match_files])
    days = [d.isoformat() if d else "" for d in selection["date_range"]]
    _write_run(out, manifest, {
        "params.txt": f"alpha={params.alpha!r}\n"
                      f"fitted_e2={params.fitted_e2!r}\n"
                      f"n_matches={params.n_matches}\n"
                      f"dataset_fingerprint={fingerprint}\n"
                      f"date_from={days[0]}\n"
                      f"date_to={days[1]}\n",
        "report.txt": _scores(params.alpha, params.fitted_e2, baseline, params.n_matches)
                      + "\n" + report.summary() + "\n"})
    click.echo(f"alpha={params.alpha:.6f} e2={params.fitted_e2:.6f} "
               f"baseline_e2={baseline:.6f} n={params.n_matches}")


@main.command("predict")
@click.option("--alpha", type=float, default=None, help="Model exponent.")
@click.option("--params", "params_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Fitted-params file from `fit`.")
@click.argument("r_i", type=float)
@click.argument("r_j", type=float)
@handle_errors
def predict_cmd(alpha, params_path, r_i, r_j):
    """Print win probability for a player with R_I points against R_J."""
    alpha = _resolve_alpha(alpha, params_path)
    try:
        result = lib.predict(alpha, r_i, r_j)
    except DomainError as exc:
        raise click.UsageError(str(exc)) from None
    click.echo(f"ratio       {result.ratio:.6f}")
    click.echo(f"probability {result.probability:.6f}")


@main.command()
@ingest_options
@click.option("--alpha", type=float, default=None)
@click.option("--params", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", default=None, type=click.Path(file_okay=False),
              help="Optional output directory for evaluation.txt.")
@handle_errors
def evaluate(match_files, alpha, params, out, **scope):
    """Brier score of a fitted model on a (held-out) date range."""
    alpha = _resolve_alpha(alpha, params)
    selection = _scope(**scope)
    observations, report = _load_matches(match_files, selection)
    if not observations:
        raise DomainError("no matches after filtering")
    lines = _scores(alpha, lib.brier_score(alpha, observations),
                    lib.baseline_brier(observations), len(observations))
    click.echo(lines, nl=False)
    if out:
        _write_run(out, _manifest("evaluate", [*match_files, scope["schema"], params],
                                  dict(alpha=alpha)),
                   {"evaluation.txt": lines + "\n" + report.summary() + "\n"})


@main.command()
@ingest_options
@click.option("--rankings", multiple=True, type=click.Path(exists=True, dir_okay=False),
              help="Ranking snapshot files for the rank-band tables.")
@click.option("--alpha", type=float, default=None)
@click.option("--params", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--ratio-bins", default=DEFAULT_RATIO_BINS, show_default=True)
@click.option("--prob-bins", default=DEFAULT_PROB_BINS, show_default=True)
@click.option("--out", required=True, type=click.Path(file_okay=False))
@handle_errors
def report(match_files, rankings, alpha, params, ratio_bins, prob_bins, out, **scope):
    """Emit figures and tables: ratio curve, calibration, rank stats, participation."""
    alpha = _resolve_alpha(alpha, params)
    selection = _scope(**scope)
    tally = lib.ParticipationTally()
    observations, ingest_report = _load_matches(match_files, selection, tally=tally)
    table = lib.participation_table(tally)
    if not observations:
        raise DomainError("no matches after filtering")
    ratio_curve = lib.bin_by_ratio(observations, alpha, n_bins=ratio_bins)
    calib = lib.calibration_curve(observations, alpha, n_bins=prob_bins)
    stats, skipped = lib.rank_stats(lib.load_rankings(rankings)) if rankings else (None, None)
    files = {
        "ratio_curve.csv": lambda fp: lib.write_curve_csv(ratio_curve, fp),
        "ratio_curve.svg": lambda fp: lib.write_curve_svg(
            ratio_curve, fp, "Win frequency vs point ratio", "point ratio"),
        "calibration.csv": lambda fp: lib.write_curve_csv(calib, fp),
        "calibration.svg": lambda fp: lib.write_curve_svg(
            calib, fp, "Outcome frequency vs predicted probability", "predicted probability"),
    }
    if rankings:
        files["rank_stats.csv"] = lambda fp: lib.write_rank_stats_csv(stats, fp)
        files["rank_stats.txt"] = lib.format_rank_stats(stats) + "\n" + (
            f"\nskipped {len(skipped)} snapshot dates missing a band\n" if skipped else "")
    else:
        click.echo("no ranking files given: rank-band tables skipped", err=True)
    files["participation.csv"] = lambda fp: lib.write_participation_csv(table, fp)
    files["participation.txt"] = lib.format_participation(table) + "\n"
    files["ingest_report.txt"] = ingest_report.summary() + "\n"
    out_dir = _write_run(out, _manifest("report", [*match_files, *rankings, scope["schema"],
                                                   params], dict(alpha=alpha)), files)
    click.echo(f"report written to {out_dir}")


@main.command()
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Flat key=value season config.")
@click.option("--alpha", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--players", type=int, default=None)
@click.option("--seasons", type=int, default=None)
@click.option("--burn-in", type=int, default=None)
@click.option("--n500", type=int, default=None)
@click.option("--n250", type=int, default=None)
@click.option("--max-events", type=int, default=None)
@click.option("--top30-mandatory/--no-top30-mandatory",
              default=None, help="Season-start top 30 enter majors and picks only.")
@click.option("--points-floor", type=float, default=None)
@click.option("--calendar", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Calendar CSV (week, category, draw_size).")
@click.option("--out", required=True, type=click.Path(file_okay=False))
@handle_errors
def simulate(config, calendar, out, **overrides):
    """Run the season Monte Carlo and summarize rank-band points."""
    season, config_calendar = (lib.load_season_config(config) if config
                               else (lib.SeasonConfig(), None))
    for flag, value in overrides.items():
        if value is not None:
            setattr(season, SEASON_FLAGS[flag], value)
    if calendar is not None:
        season.calendar = lib.load_calendar_file(calendar)
    season.validate()
    deepest = max(lib.RANK_BANDS)
    if season.n_players < deepest:  # the summary reads every band's final standing
        raise DomainError(f"no final standing for season {season.burn_in + 1}, rank {deepest} "
                          f"from a player pool of {season.n_players}")
    result = lib.run_season(season)
    summary = (f"seasons      {season.n_seasons} (burn-in {season.burn_in})\n"
               f"players      {season.n_players}\n"
               f"alpha        {season.alpha:.6f}\n"
               f"rng_seed     {season.rng_seed}\n\n"
               "rank band    expected      median        mean         min         max\n")
    for band in lib.RANK_BANDS:
        s = result.rank_summary(band)
        summary += (f"{band:<12} {lib.expected_points(band):>9} {s['median']:>11.1f} "
                    f"{s['mean']:>11.1f} {s['min']:>11.1f} {s['max']:>11.1f}\n")
    # the config and the calendar the run used; --calendar replaces the config's
    manifest = _manifest("simulate", [config, calendar or config_calendar],
                         {flag: getattr(season, field) for flag, field in SEASON_FLAGS.items()},
                         rng_seed=season.rng_seed)
    out_dir = _write_run(out, manifest, {"seasons.csv": result.write_csv, "summary.txt": summary})
    click.echo(f"simulation written to {out_dir}")


@main.command("ingest-dump")
@ingest_options
@click.option("--out", required=True, type=click.Path(file_okay=False))
@handle_errors
def ingest_dump(match_files, out, **scope):
    """Normalize archives into (date, level, round, winner_points, loser_points)."""
    selection = _scope(**scope)
    observations, report = _load_matches(match_files, selection)
    _write_run(out, _manifest("ingest-dump", [*match_files, scope["schema"]]),
               {"observations.csv": lambda fp: lib.dump_observations(observations, fp)})
    click.echo(report.summary())


if __name__ == "__main__":
    main()
