"""Command-line frontend: fit, predict, evaluate, report, simulate, ingest-dump.

Every command that writes files drops a manifest.json beside its outputs
recording the flags, input hashes, seed, and tool version.  The manifest's
``flags`` hold every option of the command as given, with ``alpha`` resolved
from ``--params`` and, for ``simulate``, the final season-config values; the
match files and ``--params`` are not flags but are hashed in ``inputs``.
Each flag is declared once, in its ``click.option``.  Data files are
byte-reproducible for identical inputs and seeds; only the manifest
timestamp differs between reruns.

Exit codes: 0 success, 2 usage, 3 schema, 4 I/O, 5 domain.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from . import __version__, model
from .errors import DomainError, SchemaError
from .ingest import (
    DEFAULT_LEVELS,
    _read_key_values,
    dump_observations,
    load_matches,
    load_raw_rows,
    load_rankings,
    load_schema,
    select_matches,
)
from .manifest import build_manifest, dataset_fingerprint, write_manifest
from .model import ModelParams, baseline_brier, brier_score, fit_alpha, predict
from .points import expected_points
from .report import (
    DEFAULT_PROB_BINS,
    DEFAULT_RATIO_BINS,
    bin_by_ratio,
    calibration_curve,
    format_participation,
    format_rank_stats,
    participation_table,
    rank_stats,
    write_curve_csv,
    write_curve_svg,
    write_participation_csv,
    write_rank_stats_csv,
)
from .season import SeasonConfig, load_calendar_file, load_season_config, run_season

EXIT_SCHEMA = 3
EXIT_IO = 4
EXIT_DOMAIN = 5

#: simulate flag -> the SeasonConfig field it overrides
SEASON_FLAGS = {"alpha": "alpha", "seed": "rng_seed", "players": "n_players",
                "seasons": "n_seasons", "burn_in": "burn_in", "n500": "n_500_choices",
                "n250": "n_250_choices", "max_events": "max_events_per_season",
                "top30_mandatory": "top30_mandatory", "points_floor": "points_floor"}


def handle_errors(fn):
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
    return fn


def _scope(date_from, date_to, levels, include_qualifying, drop_walkovers, schema) -> dict:
    """load_matches keyword arguments from the six ingest options."""
    dates = tuple(d.date() if d else None for d in (date_from, date_to))
    return dict(date_range=dates, levels=frozenset(levels.split(",")),
                include_qualifying=include_qualifying, drop_walkovers=drop_walkovers,
                schema=load_schema(schema) if schema else None)


def _manifest(command: str, files, resolved: dict | None = None, rng_seed: int | None = None):
    """The run's manifest.  ``flags`` are the command's parameters as click
    resolved them, minus the match files and --params (both hashed in
    ``inputs``), with the ``resolved`` values on top; ``inputs`` hash each of
    ``files`` that was given."""
    flags = {key: value for key, value in click.get_current_context().params.items()
             if key not in ("match_files", "params")}
    return build_manifest(command, {**flags, **(resolved or {})},
                          [path for path in files if path], seed=rng_seed)


def _ensure_out(out: str) -> Path:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def write_params_file(path: Path, params: ModelParams, fingerprint: str,
                      date_from, date_to) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(f"alpha={params.alpha!r}\n")
        fp.write(f"fitted_e2={params.fitted_e2!r}\n")
        fp.write(f"n_matches={params.n_matches}\n")
        fp.write(f"dataset_fingerprint={fingerprint}\n")
        fp.write(f"date_from={date_from.date().isoformat() if date_from else ''}\n")
        fp.write(f"date_to={date_to.date().isoformat() if date_to else ''}\n")


def read_params_file(path: str | Path) -> ModelParams:
    fields = {key: value for _, key, value in _read_key_values(path)}

    def number(key: str, kind):
        text = fields.get(key, "")
        if key != "alpha" and text in ("", "None"):
            return None
        try:
            return kind(text)
        except ValueError:
            raise SchemaError(f"{path}: missing or invalid {key} field") from None

    return ModelParams(alpha=number("alpha", float), fitted_e2=number("fitted_e2", float),
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
@click.argument("match_files", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@ingest_options
@click.option("--search-lo", default=model.DEFAULT_SEARCH_LO, show_default=True)
@click.option("--search-hi", default=model.DEFAULT_SEARCH_HI, show_default=True)
@click.option("--tol", default=model.DEFAULT_TOL, show_default=True)
@click.option("--out", required=True, type=click.Path(file_okay=False))
@handle_errors
def fit(match_files, search_lo, search_hi, tol, out, **scope):
    """Fit the exponent alpha by minimizing the Brier score."""
    observations, report = load_matches(match_files, **_scope(**scope))
    if not observations:
        raise DomainError("no matches after filtering")
    params = fit_alpha(observations, search_lo=search_lo, search_hi=search_hi, tol=tol)
    if min(params.alpha - search_lo, search_hi - params.alpha) <= tol:
        click.echo(f"warning: alpha={params.alpha:.6f} is within tol of the search bound "
                   f"[{search_lo}, {search_hi}]; the minimum may lie outside it", err=True)
    baseline = baseline_brier(observations)

    out_dir = _ensure_out(out)
    manifest = _manifest("fit", [*match_files, scope["schema"]])
    fingerprint = dataset_fingerprint([manifest["inputs"][str(p)] for p in match_files])
    write_params_file(out_dir / "params.txt", params, fingerprint,
                      scope["date_from"], scope["date_to"])
    with open(out_dir / "report.txt", "w", encoding="utf-8") as fp:
        fp.write(f"alpha        {params.alpha:.6f}\n")
        fp.write(f"e2           {params.fitted_e2:.6f}\n")
        fp.write(f"baseline_e2  {baseline:.6f}\n")
        fp.write(f"n_matches    {params.n_matches}\n\n")
        fp.write(report.summary() + "\n")
    write_manifest(manifest, out_dir)
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
        result = predict(alpha, r_i, r_j)
    except DomainError as exc:
        raise click.UsageError(str(exc)) from None
    click.echo(f"ratio       {result.ratio:.6f}")
    click.echo(f"probability {result.probability:.6f}")


@main.command()
@click.argument("match_files", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@ingest_options
@click.option("--alpha", type=float, default=None)
@click.option("--params", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", default=None, type=click.Path(file_okay=False),
              help="Optional output directory for evaluation.txt.")
@handle_errors
def evaluate(match_files, alpha, params, out, **scope):
    """Brier score of a fitted model on a (held-out) date range."""
    alpha = _resolve_alpha(alpha, params)
    observations, report = load_matches(match_files, **_scope(**scope))
    if not observations:
        raise DomainError("no matches after filtering")
    e2 = brier_score(alpha, observations)
    baseline = baseline_brier(observations)
    lines = (f"alpha        {alpha:.6f}\n"
             f"e2           {e2:.6f}\n"
             f"baseline_e2  {baseline:.6f}\n"
             f"n_matches    {len(observations)}\n")
    click.echo(lines, nl=False)
    if out:
        out_dir = _ensure_out(out)
        with open(out_dir / "evaluation.txt", "w", encoding="utf-8") as fp:
            fp.write(lines + "\n" + report.summary() + "\n")
        write_manifest(_manifest("evaluate", [*match_files, scope["schema"], params],
                                 dict(alpha=alpha)), out_dir)


@main.command()
@click.argument("match_files", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
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
    raw = load_raw_rows(match_files, selection.pop("schema"))
    observations, ingest_report = select_matches(raw, **selection)
    if not observations:
        raise DomainError("no matches after filtering")
    out_dir = _ensure_out(out)

    ratio_curve = bin_by_ratio(observations, alpha, n_bins=ratio_bins)
    with open(out_dir / "ratio_curve.csv", "w", encoding="utf-8", newline="") as fp:
        write_curve_csv(ratio_curve, fp)
    with open(out_dir / "ratio_curve.svg", "w", encoding="utf-8") as fp:
        write_curve_svg(ratio_curve, fp, "Win frequency vs point ratio", "point ratio")

    calib = calibration_curve(observations, alpha, n_bins=prob_bins)
    with open(out_dir / "calibration.csv", "w", encoding="utf-8", newline="") as fp:
        write_curve_csv(calib, fp)
    with open(out_dir / "calibration.svg", "w", encoding="utf-8") as fp:
        write_curve_svg(calib, fp, "Outcome frequency vs predicted probability",
                        "predicted probability")

    if rankings:
        stats, skipped = rank_stats(load_rankings(rankings))
        with open(out_dir / "rank_stats.csv", "w", encoding="utf-8", newline="") as fp:
            write_rank_stats_csv(stats, fp)
        with open(out_dir / "rank_stats.txt", "w", encoding="utf-8") as fp:
            fp.write(format_rank_stats(stats) + "\n")
            if skipped:
                fp.write(f"\nskipped {len(skipped)} snapshot dates missing a band\n")
    else:
        click.echo("no ranking files given: rank-band tables skipped", err=True)

    table = participation_table(raw)
    with open(out_dir / "participation.csv", "w", encoding="utf-8", newline="") as fp:
        write_participation_csv(table, fp)
    with open(out_dir / "participation.txt", "w", encoding="utf-8") as fp:
        fp.write(format_participation(table) + "\n")

    with open(out_dir / "ingest_report.txt", "w", encoding="utf-8") as fp:
        fp.write(ingest_report.summary() + "\n")

    write_manifest(_manifest("report", [*match_files, *rankings, scope["schema"], params],
                             dict(alpha=alpha)), out_dir)
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
    season, config_calendar = (load_season_config(config) if config
                               else (SeasonConfig(), None))
    for flag, value in overrides.items():
        if value is not None:
            setattr(season, SEASON_FLAGS[flag], value)
    if calendar is not None:
        season.calendar = load_calendar_file(calendar)
    players = [f"P{i + 1:03d}" for i in range(season.n_players)]
    result = run_season(season, players)

    out_dir = _ensure_out(out)
    with open(out_dir / "seasons.csv", "w", encoding="utf-8", newline="") as fp:
        result.write_csv(fp)
    with open(out_dir / "summary.txt", "w", encoding="utf-8") as fp:
        fp.write(f"seasons      {season.n_seasons} (burn-in {season.burn_in})\n")
        fp.write(f"players      {season.n_players}\n")
        fp.write(f"alpha        {season.alpha:.6f}\n")
        fp.write(f"rng_seed     {season.rng_seed}\n\n")
        fp.write("rank band    expected      median        mean         min         max\n")
        for band in (16, 32, 64):
            s = result.rank_summary(band)
            fp.write(
                f"{band:<12} {expected_points(band):>9} {s['median']:>11.1f} "
                f"{s['mean']:>11.1f} {s['min']:>11.1f} {s['max']:>11.1f}\n"
            )
    # the config and the calendar the run used; --calendar replaces the config's
    write_manifest(_manifest(
        "simulate", [config, calendar or config_calendar],
        {flag: getattr(season, field) for flag, field in SEASON_FLAGS.items()},
        rng_seed=season.rng_seed), out_dir)
    click.echo(f"simulation written to {out_dir}")


@main.command("ingest-dump")
@click.argument("match_files", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@ingest_options
@click.option("--out", required=True, type=click.Path(file_okay=False))
@handle_errors
def ingest_dump(match_files, out, **scope):
    """Normalize archives into (date, level, round, winner_points, loser_points)."""
    observations, report = load_matches(match_files, **_scope(**scope))
    out_dir = _ensure_out(out)
    with open(out_dir / "observations.csv", "w", encoding="utf-8", newline="") as fp:
        dump_observations(observations, fp)
    write_manifest(_manifest("ingest-dump", [*match_files, scope["schema"]]), out_dir)
    click.echo(report.summary())


if __name__ == "__main__":
    main()
