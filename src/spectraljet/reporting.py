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

CSV_HEADER = "model,alpha,beta,t,raw,normalized,target,abs_err"
LATTICE_CSV_HEADER = (
    "alpha,beta,gamma,d_ab,d_bc,d_ac,triangle_slack,comparison_lhs,comparison_rhs"
)


def fmt_float(x: float) -> str:
    if isinstance(x, float) and not math.isfinite(x):
        return '"%s"' % repr(x)
    return format(float(x), ".17g")


def _csv_field(value) -> str:
    if isinstance(value, float):
        return fmt_float(value)
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_line(values) -> str:
    return ",".join(_csv_field(v) for v in values)


def records_to_csv(records) -> Iterator[str]:
    """The jet-record CSV as newline-terminated lines, header first."""
    yield CSV_HEADER + "\n"
    for r in records:
        yield csv_line(
            (r.model, r.alpha.text(), r.beta.text(), r.t,
             r.raw_jet, r.normalized, r.target, r.abs_err)
        ) + "\n"


def triple_rows_to_csv(rows) -> Iterator[str]:
    """The lattice-triple CSV as newline-terminated lines, header first."""
    yield LATTICE_CSV_HEADER + "\n"
    fields: dict[tuple[int, ...], str] = {}  # counts -> quoted text, once per point

    def point(m) -> str:
        text = fields.get(m.counts)
        if text is None:
            text = fields[m.counts] = _csv_field(m.text())
        return text

    # "%.17g" is fmt_float's text for every finite float, and every float of
    # a row is finite by construction: each d = acos B lies in [0, pi], the
    # triangle slack is a difference of such d, |cos d| <= 1, and the
    # comparison bound p/q lies in [3/4, 1] (1.0 for a degree-0 pair).
    line = "%s,%s,%s," + ",".join(["%.17g"] * 6) + "\n"
    for alpha, beta, gamma, d_ab, d_bc, d_ac, slack, lhs, rhs in rows:
        yield line % (
            point(alpha), point(beta), point(gamma),
            d_ab, d_bc, d_ac, slack, lhs, rhs,
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
