"""Output checks: CSV points, comparison with the committed reference, scoring.

A point is the unit that ``failed_frac`` counts: one row of sweep.csv,
analytic.csv and fourpoint.csv, one (g, N) group of profiles.csv and
page.csv, and the whole of collapse.csv. A point fails when the step that
writes it exits non-zero, when its rows are missing or differ from the
committed reference beyond tolerance, or when its bytes differ from the
same point in another repetition of the same run.
"""
from __future__ import annotations

import csv
import io
import math

# Reference agreement: frame-route and closed-form values within 1e-12
# relative, critical-line (expm route) values within 1e-10; count and label
# columns exactly.
RTOL = 1e-12
RTOL_CRITICAL = 1e-10
EXACT = {"N", "subsystem", "n_samples", "site", "l"}
_GROUP = {
    "sweep.csv": ("g", "N", "subsystem"),
    "analytic.csv": ("g", "N", "subsystem"),
    "fourpoint.csv": ("g", "N", "site"),
    "profiles.csv": ("g", "N"),
    "page.csv": ("g", "N"),
    "collapse.csv": (),
}
_KEY_TYPES = {"g": float, "N": int, "subsystem": str, "site": int}


def points(name: str, text: str) -> dict[tuple, list[dict]]:
    """Rows of one CSV grouped by point key, in file order."""
    groups: dict[tuple, list[dict]] = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = tuple(_KEY_TYPES[col](row[col]) for col in _GROUP[name])
        groups.setdefault(key, []).append(row)
    return groups


def raw_points(name: str, text: str) -> dict[tuple, str]:
    """Exact text of each point's rows, for the byte-identity check."""
    lines = text.splitlines(keepends=True)
    if not lines:
        return {}
    header, body = lines[0], lines[1:]
    out: dict[tuple, str] = {}
    for line, row in zip(body, csv.DictReader(io.StringIO(header + "".join(body)))):
        key = tuple(_KEY_TYPES[col](row[col]) for col in _GROUP[name])
        out[key] = out.get(key, header) + line
    return out


def _close(a: str, b: str, rtol: float, scale: float) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return a == b
    return abs(x - y) <= rtol * max(abs(x), abs(y), scale)


def _rows_agree(ref: list[dict], got: list[dict], delta: float,
               scale: dict[str, float]) -> bool:
    """Same columns and row count; values within tolerance of the reference.

    ``scale`` holds each float column's largest magnitude in the reference;
    values near zero are compared against a thousandth of it.
    """
    if len(ref) != len(got):
        return False
    for r, o in zip(ref, got):
        if r.keys() != o.keys():
            return False
        critical = "g" in r and float(r["g"]) == delta
        rtol = RTOL_CRITICAL if critical else RTOL
        for col, value in r.items():
            if col in EXACT:
                if value != o[col]:
                    return False
            elif not _close(value, o[col], rtol, scale.get(col, 0.0) * 1e-3):
                return False
    return True


def _column_scales(groups: dict[tuple, list[dict]]) -> dict[str, float]:
    scales: dict[str, float] = {}
    for rows in groups.values():
        for row in rows:
            for col, value in row.items():
                if col in EXACT:
                    continue
                x = abs(float(value))
                if math.isfinite(x):
                    scales[col] = max(scales.get(col, 0.0), x)
    return scales


def score_rep(expected: dict[str, dict[tuple, list[dict]]],
              texts: dict[str, str | None],
              failed_owns,
              delta: float,
              check_values: bool = True) -> set[tuple[str, tuple]]:
    """Failed points of one repetition.

    ``expected`` maps CSV name to its reference points, ``texts`` to the
    text the repetition wrote (None if the file is missing) and
    ``failed_owns`` lists the (csv name, key or None) pairs owned by steps
    that exited non-zero. With ``check_values`` False only presence and
    step exits are checked (used where no reference applies).
    """
    failed = set()
    for name, ref_points in expected.items():
        got = points(name, texts[name]) if texts.get(name) is not None else {}
        scale = _column_scales(ref_points)
        for key, ref_rows in ref_points.items():
            if key not in got:
                failed.add((name, key))
            elif check_values and not _rows_agree(ref_rows, got[key], delta, scale):
                failed.add((name, key))
    for name, key in failed_owns:
        for ref_key in expected.get(name, {}):
            if key is None or tuple(key) == ref_key:
                failed.add((name, ref_key))
    return failed
