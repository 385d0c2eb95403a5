#!/usr/bin/env python3
"""atppoints benchmark: four workloads over ingest, model, report, season
and bracket.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; ``--workload all`` runs every workload in
turn.  Inputs are generated from ``--seed`` (see ``gen.py``) and cached
under ``bench/.work``; their generation time is recorded but is not part of
any metric.

Each workload is a fixed sequence of commands, run as child processes one
at a time by a single closed-loop client, so there is no parallel load
(two cores are enough).  One pass runs the sequence once.  Passes repeat,
each after one setup sample, while the next is expected to end within
``--seconds``, and at least ``MIN_PASSES`` times.

* ``archive_fit``: ``fit`` on the 8 training years with ``--from/--to``,
  then ``evaluate --params`` on the 2 held-out years.  The paper's
  fit/evaluate loop; ingest dominates it, the model is a small share.
* ``archive_report``: ``report --rankings`` and ``ingest-dump`` on all 10
  years.  The same ingest layer used differently: every raw field is read,
  ``report`` parses the archive twice and ``ingest-dump`` writes every
  kept row; it also runs the report layer.
* ``season_sim``: ``simulate --seasons 24 --burn-in 4`` with 300 players,
  the paper's headline run.  Season self time dominates; ingest does no
  work; every draw is played once.
* ``draw_mc``: a title-odds Monte Carlo through the bracket API
  (``draw_mc.py``): ballots of a 128-draw and a 32-draw field, each played
  many times.  The bracket layer is nearly all of it.

End-to-end metrics (``--trace 0``): ``setup_s``, the median wall time of
an ``atppoints --version`` child (an ``import atppoints.bracket`` child on
``draw_mc``); ``pass_s``, the median wall time of one pass; and
``peak_rss_mb``, the largest ``ru_maxrss`` of any timed child.  The
per-command times (``fit_s``, ``evaluate_s``, ``report_s``,
``ingest_dump_s``, ``simulate_s``, ``draw_mc_s``) and ``error_rate`` are
printed above the result line and kept in the run record.

``--trace 1`` alternates untraced and traced passes.  The traced children
wrap the package's public functions from outside (``spans.py``); the
per-layer metrics come from the spans of the median traced pass, and
``trace.overhead_s`` is its wall time minus the untraced median.

Every pass checks the outputs against what the generator put in, and
hashes every data file (``manifest.json`` aside, it carries a timestamp).
Passes must agree byte for byte, and at the default seed they must match
``digests.json``.  A nonzero exit or a failed check is a failed operation.
The last line of output is the JSON result; a record with every sample,
the environment and the digests goes to ``bench/.work/records``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1

N_SETUP = 5  # setup samples at least
MIN_PASSES = 3
HARD_STOP_S = 150.0  # no pass is expected to end later than this, whatever --seconds says
RUN_LIMIT_S = 165.0  # a child still running this long after its workload began is killed

ALPHA_TOL = 0.05  # |fitted alpha - generator alpha|; seeds 1-6 fit within 0.02
REPORT_ALPHA = "0.87"
SEASONS, BURN_IN, PLAYERS = 24, 4, 300
BALLOTS, RUNS = 50, 200
# fit's default golden-section bracket and tolerance
SEARCH_LO, SEARCH_HI, SEARCH_TOL = 0.01, 5.0, 1e-6

CLI = "import sys; from atppoints.cli import main; sys.exit(main(prog_name='atppoints'))"

PER_LAYER_UNITS = {
    "ingest.load_matches_s": "s",
    "ingest.load_raw_rows_s": "s",
    "ingest.load_raw_rows_calls": "count",
    "ingest.rows_per_s": "1/s",
    "ingest.load_rankings_s": "s",
    "ingest.dump_observations_s": "s",
    "ingest.dump_rows_per_s": "1/s",
    "model.fit_alpha_s": "s",
    "model.brier_evals_per_s": "1/s",
    "model.brier_score_s": "s",
    "model.baseline_brier_s": "s",
    "report.bin_by_ratio_s": "s",
    "report.calibration_curve_s": "s",
    "report.participation_table_s": "s",
    "report.rank_stats_s": "s",
    "report.write_curve_s": "s",
    "season.run_season_s": "s",
    "season.self_s": "s",
    "season.weeks_per_s": "1/s",
    "season.write_csv_s": "s",
    "bracket.run_tournament_s": "s",
    "bracket.run_tournament_calls": "count",
    "bracket.tournaments_per_s": "1/s",
    "bracket.place_seeds_s": "s",
    "bracket.fill_unseeded_s": "s",
    "manifest.build_manifest_s": "s",
    "manifest.bytes_hashed": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Command:
    name: str          # metric stem: fit, evaluate, report, ingest_dump, ...
    args: list[str]    # atppoints arguments, or draw_mc.py arguments
    out: Path
    program: str = "cli"  # "cli" or "draw_mc"

    def argv(self, spans: Path | None = None, run_id: str = "") -> list[str]:
        if self.program == "draw_mc":
            extra = ["--spans", str(spans), "--run-id", run_id] if spans else []
            return [sys.executable, str(BENCH / "draw_mc.py"), *self.args, *extra]
        if spans:
            return [sys.executable, str(BENCH / "spans.py"), str(spans), run_id, "--", *self.args]
        return [sys.executable, "-c", CLI, *self.args]


@dataclass
class Child:
    name: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    status: int
    stdout: str


@dataclass
class Pass:
    children: list[Child]
    failures: list[tuple[str, str]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    calls: dict[str, dict[str, int]] = field(default_factory=dict)  # command -> span counts

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)


def run_child(argv: list[str], name: str, log: Path, deadline: float) -> Child:
    """Run one child to completion; wall from spawn to reap, rusage from wait4.

    A child still running at ``deadline`` (a ``perf_counter`` value) is killed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(log, "w+", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    return Child(name, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, text)


# --- workloads -------------------------------------------------------------------


def _rel(path: Path) -> str:
    return os.path.relpath(path, ROOT)


class Workload:
    """Inputs, commands and output checks of one workload."""

    name = ""
    setup_argv = [sys.executable, "-c", CLI, "--version"]

    def __init__(self, seed: int, out: Path, deadline: float) -> None:
        self.seed = seed
        self.out = out
        self.deadline = deadline

    def prepare(self) -> None:
        """Generate (or reuse) this seed's inputs."""

    def run_setup(self, name: str = "setup") -> Child:
        return run_child(self.setup_argv, name, self.out / "setup.log", self.deadline)

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def check(self, children: dict[str, Child]) -> list[tuple[str, str]]:
        raise NotImplementedError


class ArchiveWorkload(Workload):
    def prepare(self) -> None:
        self.archive = gen.write_archive(self.seed, WORK / "inputs")
        with open(self.archive / "meta.json", encoding="utf-8") as fp:
            self.meta = json.load(fp)

    def files(self, scope: str) -> list[str]:
        return [_rel(self.archive / f) for f in self.meta["scopes"][scope]["files"]]

    def expect(self, scope: str) -> dict[str, int]:
        return self.meta["scopes"][scope]["expect"]


class ArchiveFit(ArchiveWorkload):
    name = "archive_fit"

    def commands(self) -> list[Command]:
        scope = self.meta["scopes"]["fit"]
        return [
            Command("fit", ["fit", *self.files("fit"), "--from", scope["from"],
                            "--to", scope["to"], "--drop-walkovers",
                            "--out", _rel(self.out / "fit")], self.out / "fit"),
            Command("evaluate", ["evaluate", *self.files("evaluate"), "--drop-walkovers",
                                 "--params", _rel(self.out / "fit" / "params.txt"),
                                 "--out", _rel(self.out / "evaluate")], self.out / "evaluate"),
        ]

    def check(self, children):
        fails = []
        params = _key_values((self.out / "fit" / "params.txt").read_text(), "=")
        alpha = float(params["alpha"])
        if not abs(alpha - self.meta["alpha"]) <= ALPHA_TOL:
            fails.append(("fit", f"alpha {alpha} not within {ALPHA_TOL} of {self.meta['alpha']}"))
        fails += _check_ingest("fit", (self.out / "fit" / "report.txt").read_text(),
                               self.expect("fit"))
        kept = self.expect("evaluate")["kept"]
        n = int(_key_values(children["evaluate"].stdout, None)["n_matches"])
        if n != kept:
            fails.append(("evaluate", f"n_matches {n} != held-out kept {kept}"))
        fails += _check_ingest("evaluate", (self.out / "evaluate" / "evaluation.txt").read_text(),
                               self.expect("evaluate"))
        return fails


class ArchiveReport(ArchiveWorkload):
    name = "archive_report"

    def commands(self) -> list[Command]:
        files = self.files("all")
        return [
            Command("report", ["report", *files,
                               "--rankings", _rel(self.archive / self.meta["rankings"]),
                               "--alpha", REPORT_ALPHA, "--drop-walkovers",
                               "--out", _rel(self.out / "report")], self.out / "report"),
            Command("ingest_dump", ["ingest-dump", *files, "--drop-walkovers",
                                    "--out", _rel(self.out / "ingest_dump")],
                    self.out / "ingest_dump"),
        ]

    def check(self, children):
        expect = self.expect("all")
        report = self.out / "report"
        fails = _check_ingest("report", (report / "ingest_report.txt").read_text(), expect)
        counts = sum(int(r["count"]) for r in _csv_rows(report / "ratio_curve.csv"))
        if counts != 2 * expect["kept"]:
            fails.append(("report", f"ratio-curve counts {counts} != 2 x kept {expect['kept']}"))
        snapshots = self.meta["complete_snapshots"]
        for row in _csv_rows(report / "rank_stats.csv"):
            if int(row["n_dates"]) != snapshots:
                fails.append(("report", f"band {row['band']} n_dates {row['n_dates']} "
                                        f"!= {snapshots} complete snapshots"))
        fails += _check_ingest("ingest_dump", children["ingest_dump"].stdout, expect)
        rows = sum(1 for _ in _csv_rows(self.out / "ingest_dump" / "observations.csv"))
        if rows != expect["kept"]:
            fails.append(("ingest_dump", f"{rows} observation rows != kept {expect['kept']}"))
        return fails


class SeasonSim(Workload):
    name = "season_sim"

    def commands(self) -> list[Command]:
        return [Command("simulate", [
            "simulate", "--seed", str(self.seed), "--players", str(PLAYERS),
            "--seasons", str(SEASONS), "--burn-in", str(BURN_IN),
            "--out", _rel(self.out / "simulate")], self.out / "simulate")]

    def check(self, children):
        ranks = defaultdict(list)
        rows = 0
        with open(self.out / "simulate" / "seasons.csv", newline="", encoding="utf-8") as fp:
            reader = csv.reader(fp)
            header = next(reader)
            season, week, rank = (header.index(c) for c in ("season", "week", "rank"))
            for row in reader:
                ranks[(row[season], row[week])].append(int(row[rank]))
                rows += 1
        fails = []
        if rows != SEASONS * 52 * PLAYERS:
            fails.append(("simulate", f"seasons.csv has {rows} rows, "
                                      f"not {SEASONS * 52 * PLAYERS}"))
        full = list(range(1, PLAYERS + 1))
        bad = [key for key, got in ranks.items() if sorted(got) != full]
        if len(ranks) != SEASONS * 52 or bad:
            fails.append(("simulate", f"{len(bad)} of {len(ranks)} (season, week) "
                                      f"lack ranks 1..{PLAYERS}"))
        return fails


class DrawMC(Workload):
    name = "draw_mc"
    setup_argv = [sys.executable, "-c", "import atppoints.bracket"]

    def prepare(self) -> None:
        self.fields = gen.write_fields(self.seed, WORK / "inputs")

    def commands(self) -> list[Command]:
        return [Command("draw_mc", [
            "--fields", _rel(self.fields / "fields.json"), "--seed", str(self.seed),
            "--ballots", str(BALLOTS), "--runs", str(RUNS),
            "--out", _rel(self.out / "draw_mc")], self.out / "draw_mc", program="draw_mc")]

    def check(self, children):
        with open(self.out / "draw_mc" / "checks.json", encoding="utf-8") as fp:
            checks = json.load(fp)
        fails = []
        if sorted(checks) != sorted(gen.FIELDS):
            fails.append(("draw_mc", f"fields {sorted(checks)} != {sorted(gen.FIELDS)}"))
        played = BALLOTS * RUNS
        for name, c in checks.items():
            got = (c["tournaments"], c["titles"], c["bad_champion"], c["bad_total"])
            if got != (played, played, 0, 0):
                fails.append(("draw_mc", f"{name}: {c} (want {played} tournaments, one "
                                         "champion each, full point-table total)"))
        return fails


WORKLOADS = {w.name: w for w in (ArchiveFit, ArchiveReport, SeasonSim, DrawMC)}


def _key_values(text: str, sep: str | None) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        parts = line.split(sep, 1)
        if len(parts) == 2:
            out[parts[0].strip()] = parts[1].strip()
    return out


def _csv_rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fp:
        yield from csv.DictReader(fp)


_INGEST_LABELS = {
    "rows read": "rows", "kept": "kept", "dropped: zero pts": "zero",
    "dropped: missing": "missing", "dropped: filtered": "filtered",
    "by level": "level", "by round": "round", "by walkover": "walkover", "by date": "date",
}


def _check_ingest(command: str, text: str, expect: dict[str, int]) -> list[tuple[str, str]]:
    """Compare an IngestReport summary with the generator's row accounting."""
    got = {}
    for line in text.splitlines():
        m = re.fullmatch(r"\s*(.*?)\s+(\d+)\s*", line)
        if m and m.group(1) in _INGEST_LABELS:
            got[_INGEST_LABELS[m.group(1)]] = int(m.group(2))
    want = {key: expect[key] for key in _INGEST_LABELS.values()}
    if got != want:
        return [(command, f"ingest counts {got} != injected {want}")]
    return []


# --- passes --------------------------------------------------------------------------


def run_pass(workload: Workload, index: int, trace_dir: Path | None) -> Pass:
    children = []
    spans = None
    if trace_dir is not None:
        spans = trace_dir / f"pass{index}.jsonl"
        spans.unlink(missing_ok=True)
    for cmd in workload.commands():
        shutil.rmtree(cmd.out, ignore_errors=True)
        log = workload.out / f"{cmd.name}.log"
        children.append(run_child(cmd.argv(spans, cmd.name), cmd.name, log, workload.deadline))
    result = Pass(children)
    by_name = {c.name: c for c in children}
    result.failures = [(c.name, f"exit status {c.status}") for c in children if c.status != 0]
    if not result.failures:
        try:
            result.failures = workload.check(by_name)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result.failures = [(children[-1].name, f"output check raised {exc!r}")]
    for cmd in workload.commands():
        for path in sorted(cmd.out.rglob("*")) if cmd.out.exists() else []:
            if path.is_file() and path.name != "manifest.json":
                rel = path.relative_to(workload.out).as_posix()
                result.digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    if spans is not None:
        result.layers, result.calls = layer_metrics(spans)
    return result


def layer_metrics(spans_path: Path) -> tuple[dict[str, float], dict[str, dict[str, int]]]:
    """Per-layer metrics of one traced pass, and its span counts per command."""
    spans = []
    if spans_path.exists():
        with open(spans_path, encoding="utf-8") as fp:
            spans = [json.loads(line) for line in fp]
    dur, calls, items = defaultdict(float), Counter(), Counter()
    by_command = defaultdict(Counter)
    child_time = defaultdict(float)  # (run, parent id) -> time covered by children
    for s in spans:
        d = s["end"] - s["start"]
        dur[s["name"]] += d
        calls[s["name"]] += 1
        by_command[s["run"]][s["name"]] += 1
        items[s["name"]] += s["n"] or 0
        if s["parent"] is not None:
            child_time[(s["run"], s["parent"])] += d

    def self_time(name: str) -> float:
        return sum(s["end"] - s["start"] - child_time[(s["run"], s["id"])]
                   for s in spans if s["name"] == name)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    m = {
        "ingest.load_matches_s": dur["ingest.load_matches"],
        "ingest.load_raw_rows_s": dur["ingest.load_raw_rows"],
        "ingest.load_raw_rows_calls": calls["ingest.load_raw_rows"],
        "ingest.rows_per_s": rate(items["ingest.load_raw_rows"], dur["ingest.load_raw_rows"]),
        "ingest.load_rankings_s": dur["ingest.load_rankings"],
        "ingest.dump_observations_s": dur["ingest.dump_observations"],
        "ingest.dump_rows_per_s": rate(items["ingest.dump_observations"],
                                       dur["ingest.dump_observations"]),
        "model.fit_alpha_s": dur["model.fit_alpha"],
        "model.brier_evals_per_s": rate(calls["model.fit_alpha"] * golden_section_evals(),
                                        dur["model.fit_alpha"]),
        "model.brier_score_s": dur["model.brier_score"],
        "model.baseline_brier_s": dur["model.baseline_brier"],
        "report.bin_by_ratio_s": dur["report.bin_by_ratio"],
        "report.calibration_curve_s": dur["report.calibration_curve"],
        "report.participation_table_s": dur["report.participation_table"],
        "report.rank_stats_s": dur["report.rank_stats"],
        "report.write_curve_s": dur["report.write_curve"],
        "season.run_season_s": dur["season.run_season"],
        "season.self_s": self_time("season.run_season"),
        "season.weeks_per_s": rate(calls["season.run_season"] * SEASONS * 52,
                                   dur["season.run_season"]),
        "season.write_csv_s": dur["season.write_csv"],
        "bracket.run_tournament_s": dur["bracket.run_tournament"],
        "bracket.run_tournament_calls": calls["bracket.run_tournament"],
        "bracket.tournaments_per_s": rate(calls["bracket.run_tournament"],
                                          dur["bracket.run_tournament"]),
        "bracket.place_seeds_s": dur["bracket.place_seeds"],
        "bracket.fill_unseeded_s": dur["bracket.fill_unseeded"],
        "manifest.build_manifest_s": dur["manifest.build_manifest"],
        "manifest.bytes_hashed": items["manifest.sha256_file"],
        # the command's own time outside the traced layers: click parsing and
        # the writes in cli.py, or the Monte Carlo's tallies in draw_mc.py
        "cli.self_s": self_time("cli.main") + self_time("draw_mc.main"),
    }
    return {k: float(v) for k, v in m.items()}, {k: dict(v) for k, v in by_command.items()}


def golden_section_evals() -> int:
    """Brier evaluations one fit_alpha call makes: two to open the bracket,
    one per narrowing step until the width is below tol, one at the optimum."""
    steps = math.ceil(math.log(SEARCH_TOL / (SEARCH_HI - SEARCH_LO))
                      / math.log((math.sqrt(5.0) - 1.0) / 2.0))
    return 2 + steps + 1


# --- one run ---------------------------------------------------------------------------


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "click"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"python": platform.python_version(), **versions, "nproc": os.cpu_count(),
            "cpu_model": cpu, "platform": platform.platform()}


def steal_s() -> float | None:
    """CPU time the host took from this machine's CPUs so far (/proc/stat)."""
    try:
        with open("/proc/stat", encoding="utf-8") as fp:
            fields = fp.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 use_reference: bool = True) -> dict:
    out = WORK / "out" / name
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, out, time.perf_counter() + RUN_LIMIT_S)
    t_gen = time.perf_counter()
    workload.prepare()
    gen_s = time.perf_counter() - t_gen

    warm = workload.run_setup("warmup")
    trace_dir = None
    if trace:
        trace_dir = WORK / "trace" / f"{name}-seed{seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)

    # Setup samples sit between passes, so that they and the passes see the
    # same host speed, which drifts over tens of seconds.  A cycle (setup
    # sample, pass, checks) starts only if it is expected to end in time.
    setup: list[Child] = []
    passes: list[Pass] = []
    traced: list[Pass] = []
    cycles: list[float] = []
    steal0 = steal_s()
    t0 = time.perf_counter()
    while len(passes) < (1 if trace else MIN_PASSES) or (
            time.perf_counter() - t0 + statistics.median(cycles) <= min(seconds, HARD_STOP_S)):
        start = time.perf_counter()
        if not trace:
            setup.append(workload.run_setup())
        passes.append(run_pass(workload, len(passes), None))
        if trace:
            traced.append(run_pass(workload, len(traced), trace_dir))
        cycles.append(time.perf_counter() - start)
    while not trace and len(setup) < N_SETUP:
        setup.append(workload.run_setup())
    attempted = len(setup)
    failed = sum(c.status != 0 for c in setup)
    steal1 = steal_s()
    measured_s = time.perf_counter() - t0

    reference = None
    if use_reference and seed == DEFAULT_SEED and DIGESTS.exists():
        with open(DIGESTS, encoding="utf-8") as fp:
            reference = json.load(fp).get(name)
    all_passes = passes + traced
    for p in all_passes:
        want = reference or all_passes[0].digests
        for key in sorted(set(p.digests) | set(want)):
            if p.digests.get(key) != want.get(key):
                p.failures.append((key.split("/")[0], f"{key} digest differs"))
        attempted += len(p.children)
        failed += len({cmd for cmd, _ in p.failures})

    per_command = {}
    for cmd in workload.commands():
        walls = [c.wall_s for p in passes for c in p.children if c.name == cmd.name]
        per_command[f"{cmd.name}_s"] = statistics.median(walls)
    if trace:
        # All layers from one traced pass, the median by wall time, so that
        # self times and their child spans add up.
        middle = sorted(traced, key=lambda p: p.wall_s)[(len(traced) - 1) // 2]
        metrics = dict(middle.layers)
        metrics["trace.overhead_s"] = middle.wall_s - statistics.median(p.wall_s for p in passes)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(c.wall_s for c in setup),
            "pass_s": statistics.median(p.wall_s for p in passes),
            "peak_rss_mb": max(c.maxrss_mb for p in passes for c in p.children),
        }
        units = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "gen_s": gen_s, "warmup_s": warm.wall_s,
        "measured_s": measured_s,
        "host_steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "setup": [_sample(c) for c in setup],
        "passes": [{"traced": p in traced, "wall_s": p.wall_s,
                    "children": [_sample(c) for c in p.children],
                    "failures": p.failures, "layers": p.layers, "calls": p.calls}
                   for p in all_passes],
        "digests": all_passes[0].digests,
        "per_command_s": per_command,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    with open(records / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fp:
        json.dump(record, fp, indent=1)
    print_summary(record, len(passes), len(traced))
    return record


def _sample(c: Child) -> dict:
    return {"name": c.name, "wall_s": c.wall_s, "cpu_s": c.cpu_s,
            "maxrss_mb": c.maxrss_mb, "status": c.status}


def print_summary(record: dict, n_passes: int, n_traced: int) -> None:
    env = record["environment"]
    print(f"== {record['workload']}  seed {record['seed']}  passes {n_passes}"
          f"{f' + {n_traced} traced' if record['trace'] else ''}"
          f"  (inputs {record['gen_s']:.2f} s, not timed)")
    print(f"   python {env['python']}  numpy {env['numpy']}  click {env['click']}"
          f"  nproc {env['nproc']}  cpu {env['cpu_model']}")
    if record["host_steal_s"] is not None:
        print(f"   host steal {record['host_steal_s']:.2f} s over "
              f"{record['measured_s']:.1f} s measured")
    timed = [c for p in record["passes"] if not p["traced"] for c in p["children"]]
    for key, value in record["per_command_s"].items():
        cpu = statistics.median(c["cpu_s"] for c in timed if f"{c['name']}_s" == key)
        print(f"   {key:<30} {value:12.4f} s      cpu {cpu:.4f} s  (median of {n_passes})")
    for key, m in record["metrics"].items():
        print(f"   {key:<30} {m['value']:12.4f} {m['unit']}")
    traced = [p for p in record["passes"] if p["traced"]]
    for command, counts in (traced[0]["calls"] if traced else {}).items():
        spans = ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))
        print(f"   spans in {command}: {spans}")
    rate = record["failed"] / record["attempted"]
    print(f"   {'error_rate':<30} {rate:12.4f} ratio  ({record['failed']} of "
          f"{record['attempted']} operations failed)")
    for p in record["passes"]:
        for cmd, msg in p["failures"]:
            print(f"   FAILED {cmd}: {msg}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help=f"store this run's output digests in {DIGESTS.name} (default seed only)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "atppoints" / "__init__.py").is_file():
        print(f"error: no atppoints package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        ap.error(f"--record-digests needs the default seed {DEFAULT_SEED}")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace),
                            use_reference=not args.record_digests) for n in names]
    if args.record_digests:
        if any(r["failed"] for r in records):
            print("error: not recording digests of a run with failures", file=sys.stderr)
            return 1
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        stored.update({r["workload"]: r["digests"] for r in records})
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
