"""Deterministic CSV/JSON serialization for reports.

Floats are written with 17 significant digits so serialized values round-trip
exactly and reruns with identical config produce byte-identical files.  The
JSON writer is hand-rolled to keep full control of float formatting and key
order.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator

from .multiindex import counts_text

CSV_HEADER = "model,alpha,beta,t,raw,normalized,target,abs_err"
LATTICE_CSV_HEADER = (
    "alpha,beta,gamma,d_ab,d_bc,d_ac,triangle_slack,comparison_lhs,comparison_rhs"
)


def fmt_float(x: float) -> str:
    x = float(x)  # a float subclass, such as numpy.float64, writes as a float
    if not math.isfinite(x):
        return '"%s"' % repr(x)
    return format(x, ".17g")


def _csv_field(value) -> str:
    if isinstance(value, float):
        return fmt_float(value)
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_line(values) -> str:
    return ",".join(_csv_field(v) for v in values)


def _csv_memo():
    """The field and point renderers of one CSV, each memoized per CSV.

    ``field`` gives ``_csv_field``'s text and renders each distinct float
    once.  Only ``float`` values reach the memo, since ``True == 1 == 1.0``
    would share a key.  ``0.0 == -0.0`` would too, so zeros stay out of it
    and are told apart by their sign.  ``point`` renders each distinct count
    tuple once through ``counts_text``; digits and commas need quoting only
    when there is a comma.
    """
    floats: dict[float, str] = {}
    zeros = {1.0: fmt_float(0.0), -1.0: fmt_float(-0.0)}
    points: dict[tuple[int, ...], str] = {}

    def field(value) -> str:
        if type(value) is not float:
            return _csv_field(value)
        text = floats.get(value)
        if text is None:
            if not value:
                return zeros[math.copysign(1.0, value)]
            text = floats[value] = fmt_float(value)
        return text

    def point(counts: tuple[int, ...]) -> str:
        text = points.get(counts)
        if text is None:
            text = counts_text(counts)
            if "," in text:
                text = '"' + text + '"'
            points[counts] = text
        return text

    return field, point


def records_to_csv(records) -> Iterator[str]:
    """The jet-record CSV as newline-terminated lines, header first."""
    yield CSV_HEADER + "\n"
    field, point = _csv_memo()
    line = ",".join(["%s"] * 8) + "\n"
    for model, alpha, beta, t, raw, normalized, target, abs_err in records:
        yield line % (
            field(model), point(alpha.counts), point(beta.counts), field(t),
            field(raw), field(normalized), field(target), field(abs_err),
        )


def triple_rows_to_csv(rows) -> Iterator[str]:
    """The lattice-triple CSV as newline-terminated lines, header first.

    The three points of a row are count tuples.
    """
    yield LATTICE_CSV_HEADER + "\n"
    field, point = _csv_memo()
    line = ",".join(["%s"] * 9) + "\n"
    for alpha, beta, gamma, d_ab, d_bc, d_ac, slack, lhs, rhs in rows:
        yield line % (
            point(alpha), point(beta), point(gamma), field(d_ab), field(d_bc),
            field(d_ac), field(slack), field(lhs), field(rhs),
        )


def json_dumps(obj) -> str:
    """JSON with sorted keys, two-space indent, and 17-digit floats."""
    out: list[str] = []
    _write_json(obj, out, 0)
    return "".join(out) + "\n"


def _write_json(obj, out: list[str], depth: int) -> None:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj.keys())
        for pos, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            out.append(inner + json.dumps(key) + ": ")
            _write_json(obj[key], out, depth + 1)
            out.append(",\n" if pos < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for pos, item in enumerate(seq):
            out.append(inner)
            _write_json(item, out, depth + 1)
            out.append(",\n" if pos < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to report JSON")


def write_text(path: str, text: str | Iterable[str]) -> None:
    """Write a str, or the strings of an iterable one after another."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if isinstance(text, str):
            fh.write(text)
        else:
            fh.writelines(text)
