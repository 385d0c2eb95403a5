"""Run manifests: every output directory records how it was produced."""

from __future__ import annotations

import datetime
import hashlib
import json
from pathlib import Path
from typing import Sequence

from . import __version__

MANIFEST_NAME = "manifest.json"


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def dataset_fingerprint(digests: Sequence[str]) -> str:
    """Content hash over the inputs' sha256 digests, in argument order."""
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def build_manifest(command: str, flags: dict, input_paths: Sequence[str | Path],
                   seed: int | None = None) -> dict:
    """The manifest ``write_manifest`` dumps; ``inputs`` maps path -> sha256."""
    return {
        "command": command,
        "flags": {k: _plain(v) for k, v in sorted(flags.items())},
        "inputs": {str(p): sha256_file(p) for p in input_paths},
        "version": __version__,
        "seed": seed,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _plain(value):
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, datetime.datetime):  # the CLI's --from/--to: a day
        return value.date().isoformat()
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def write_manifest(manifest: dict, out_dir: str | Path) -> Path:
    path = Path(out_dir) / MANIFEST_NAME
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(manifest, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return path
