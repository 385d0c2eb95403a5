"""The paper's match formula and the key=value and number readers, without numpy.

Player i beats player j with probability

    p = ratio**alpha / (1 + ratio**alpha),    ratio = r_i / r_j

where r_i, r_j are the players' ranking points and alpha is the fitted
exponent (``ModelParams``).  This module imports only the standard library,
so ``predict`` and the bracket kernel start without numpy; ``model`` adds
the numpy fit and scores.  ``_require_positive`` and ``_require_nonnegative``
state the two number rules: a finite real number, positive or nonnegative.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import DomainError, SchemaError

#: Every input file is UTF-8; a leading byte-order mark is not part of its text.
_ENCODING = "utf-8-sig"


@dataclass(frozen=True)
class ModelParams:
    """Fitted exponent plus fit metadata."""

    alpha: float
    fitted_e2: float | None = None
    n_matches: int | None = None

    def __post_init__(self) -> None:
        _require_positive("alpha", self.alpha)
        e2, n = self.fitted_e2, self.n_matches
        if e2 is not None and not (isinstance(e2, numbers.Real) and 0.0 <= e2 <= 1.0):
            raise DomainError(f"fitted_e2 must lie in [0, 1], got {e2!r}")
        if n is not None and not (isinstance(n, numbers.Real) and n >= 0):
            raise DomainError(f"n_matches must be nonnegative, got {n!r}")


@dataclass(frozen=True)
class Prediction:
    ratio: float
    probability: float


def win_probability(alpha: float, ratio: float) -> float:
    """Evaluate ratio**alpha / (1 + ratio**alpha) without overflow.

    For ratio > 1 the equivalent form 1 / (1 + ratio**-alpha) is used so
    that extreme ratios saturate cleanly instead of overflowing.  Agrees
    with the textbook form within 1e-12 for ratio in [1e-6, 1e6].  Where
    ratio**alpha saturates past float resolution the result is clamped to
    the open interval, one ulp inside 0 or 1.
    """
    if ratio > 1.0:
        p = 1.0 / (1.0 + math.pow(ratio, -alpha))
    else:
        t = math.pow(ratio, alpha)
        p = t / (1.0 + t)
    if p >= 1.0:
        return math.nextafter(1.0, 0.0)
    if p <= 0.0:
        return math.nextafter(0.0, 1.0)
    return p


def predict(alpha: float, r_i: float, r_j: float) -> Prediction:
    """Probability that the player holding r_i points beats the one holding r_j."""
    for name, value in (("alpha", alpha), ("r_i", r_i), ("r_j", r_j)):
        _require_positive(name, value)
    ratio = r_i / r_j
    return Prediction(ratio=ratio, probability=win_probability(alpha, ratio))


def _require_positive(name: str, value: float) -> None:
    if not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def _require_nonnegative(name: str, value: float) -> None:
    if not (isinstance(value, numbers.Real) and 0 <= value < math.inf):
        raise DomainError(f"{name} must be nonnegative and finite, got {value!r}")


def _parse_number(kind: type, text: str):
    """``kind(text)`` for a number in ASCII without ``_``; other text is a ValueError."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return kind(text)


def _read_key_values(path: str | Path) -> Iterator[tuple[int, str, str]]:
    """Yield (line number, key, value) from a flat key=value file, skipping
    blank and ``#`` lines; any other line without ``=``, or a key given
    twice, is a SchemaError."""
    try:
        with open(path, encoding=_ENCODING) as fp:
            lines = fp.readlines()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None
    first_line: dict[str, int] = {}  # key -> the line that first gave it
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = map(str.strip, line.partition("="))
        if first_line.setdefault(key, line_no) != line_no:
            raise SchemaError(f"{path}:{line_no}: key {key!r} repeats line {first_line[key]}")
        yield line_no, key, value
