"""Span recorder for the traced benchmark run, and the traced CLI launcher.

Spans are recorded from outside the package: the names a caller looks up
(``atppoints.cli.load_matches``, ``atppoints.season.run_tournament``, ...)
are replaced by wrappers that time the call.  Each span holds its name,
start, end, the id of the span that was open when it began, the run id of
the child process, and an optional item count (rows parsed, rows written,
bytes hashed).  Spans stay in memory and are written as JSON lines when the
child ends.

Usage as the traced CLI launcher (``atppoints`` on the import path):

    python3 bench/spans.py SPANS_FILE RUN_ID -- <atppoints arguments>
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time


class Recorder:
    """In-memory spans of one process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        record = {"run": self.run_id, "id": span_id, "name": name,
                  "parent": parent, "n": None}
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``count(args, result)`` gives the span's item count.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record["n"] = count(args, result)
                return result

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fp:
            for record in self.spans:
                fp.write(json.dumps(record, sort_keys=True) + "\n")


def _n_result(args, result):
    return len(result)


def _n_first_arg(args, result):
    return len(args[0])


def _file_size(args, result):
    return os.path.getsize(args[0])


# (module, attribute, span name, item count): the call sites the CLI uses.
CLI_PATCHES = [
    ("atppoints.cli", "load_matches", "ingest.load_matches", None),
    ("atppoints.ingest", "load_raw_rows", "ingest.load_raw_rows", _n_result),
    ("atppoints.cli", "load_raw_rows", "ingest.load_raw_rows", _n_result),
    ("atppoints.cli", "load_rankings", "ingest.load_rankings", None),
    ("atppoints.cli", "dump_observations", "ingest.dump_observations", _n_first_arg),
    ("atppoints.cli", "fit_alpha", "model.fit_alpha", None),
    ("atppoints.cli", "brier_score", "model.brier_score", None),
    ("atppoints.cli", "baseline_brier", "model.baseline_brier", None),
    ("atppoints.cli", "bin_by_ratio", "report.bin_by_ratio", None),
    ("atppoints.cli", "calibration_curve", "report.calibration_curve", None),
    ("atppoints.cli", "participation_table", "report.participation_table", None),
    ("atppoints.cli", "rank_stats", "report.rank_stats", None),
    ("atppoints.cli", "write_curve_csv", "report.write_curve", None),
    ("atppoints.cli", "write_curve_svg", "report.write_curve", None),
    ("atppoints.cli", "run_season", "season.run_season", None),
    ("atppoints.season.SeasonReport", "write_csv", "season.write_csv", None),
    ("atppoints.season", "place_seeds", "bracket.place_seeds", None),
    ("atppoints.season", "fill_unseeded", "bracket.fill_unseeded", None),
    ("atppoints.season", "run_tournament", "bracket.run_tournament", None),
    ("atppoints.cli", "build_manifest", "manifest.build_manifest", None),
    ("atppoints.cli", "dataset_fingerprint", "manifest.dataset_fingerprint", None),
    ("atppoints.cli", "write_manifest", "manifest.write_manifest", None),
    ("atppoints.manifest", "sha256_file", "manifest.sha256_file", _file_size),
]

# The draw Monte Carlo calls the bracket module's public functions directly.
BRACKET_PATCHES = [
    ("atppoints.bracket", "place_seeds", "bracket.place_seeds", None),
    ("atppoints.bracket", "fill_unseeded", "bracket.fill_unseeded", None),
    ("atppoints.bracket", "run_tournament", "bracket.run_tournament", None),
]


def _resolve(path: str):
    """A module, or a class inside one, from its dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def install(recorder: Recorder, patches) -> None:
    for owner, attr, name, count in patches:
        recorder.wrap(_resolve(owner), attr, name, count)


def main(argv: list[str]) -> None:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: spans.py SPANS_FILE RUN_ID -- <atppoints arguments>")
    recorder = Recorder(run_id)
    install(recorder, CLI_PATCHES)
    from atppoints.cli import main as cli_main

    try:
        with recorder.span("cli.main"):
            cli_main(cli_args, prog_name="atppoints")
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    main(sys.argv[1:])
