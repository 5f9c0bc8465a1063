"""Deterministic CSV/JSON serialization for reports.

Floats are written with 17 significant digits so serialized values round-trip
exactly and reruns with identical config produce byte-identical files.  The
JSON writer is hand-rolled to keep full control of float formatting and key
order.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import islice
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


def _csv_memo(points_recur: bool = True):
    """The memo of one CSV: each distinct float is rendered once, and so is
    each distinct point when ``points_recur``.

    Returns ``point, point_miss, real, field``.  A writer looks a value up
    inline, as ``point(p) or point_miss(p)`` and ``real(x) or field(x)``,
    and calls a function only on a miss.  ``real`` is the ``get`` of the
    float dict.  ``point_miss`` renders a count tuple through
    ``counts_text``, quoted only when it has a comma, with the comma that
    ends its field, so a writer's format puts no comma after a point.  No
    such text is empty, the all-zero point's ',' included.  With
    ``points_recur``, ``point_miss`` stores each text and ``point`` is the
    ``get`` of the point dict, so each point is rendered once; without,
    ``point`` is ``point_miss`` itself, which stores nothing, and the
    ``or`` never calls it twice.  ``field`` gives ``_csv_field``'s text of
    any value and stores each new float's.  Only ``float`` values reach the
    memo, since ``True == 1 == 1.0`` would share a key.  ``0.0 == -0.0``
    would too, so zeros stay out of it and are told apart by their sign.

    Points are stored only where they recur.  The jet-record CSV stores
    them: its points recur by construction, each in many pairs.  The
    lattice CSV stores them when the ball has no more points than the suite
    draws (``lattice.points_recur``).  Otherwise most points are met once,
    and their texts would only grow the memory with every draw.  Floats are
    stored in both: most of a lattice row's are pi/2 and 0.
    """
    points: dict[tuple[int, ...], str] = {}
    floats: dict[float, str] = {}
    zeros = {1.0: fmt_float(0.0), -1.0: fmt_float(-0.0)}

    def point_miss(counts: tuple[int, ...]) -> str:
        text = counts_text(counts)
        if "," in text:
            text = '"' + text + '"'
        text += ","
        if points_recur:
            points[counts] = text
        return text

    def field(value) -> str:
        if type(value) is not float:
            return _csv_field(value)
        text = floats.get(value)
        if text is None:
            if not value:
                return zeros[math.copysign(1.0, value)]
            text = floats[value] = fmt_float(value)
        return text

    point = points.get if points_recur else point_miss
    return point, point_miss, floats.get, field


def records_to_csv(model: str, records) -> Iterator[str]:
    """The jet-record CSV of the model labelled ``model`` as
    newline-terminated lines, header first.

    ``records`` holds one (alpha, beta, rows) per pair, with a (t, raw,
    normalized, target, abs_err) row per time.  The pairs of one jet key
    share one rows list, so each list's rows are rendered once, keyed by
    the list's identity.
    """
    yield CSV_HEADER + "\n"
    point, point_miss, _, field = _csv_memo()
    label = field(model) + ","
    # id of a rows list -> (the list, its rendered rows); the list is held
    # so that its id names no other list while the CSV is written
    rendered: dict[int, tuple[list, list[str]]] = {}
    for alpha, beta, rows in records:
        a, b = alpha.counts, beta.counts
        # a point's text ends with its comma
        head = label + (point(a) or point_miss(a)) + (point(b) or point_miss(b))
        hit = rendered.get(id(rows))
        if hit is None:
            hit = rendered[id(rows)] = rows, [
                ",".join(map(field, row)) + "\n" for row in rows]
        for tail in hit[1]:
            yield head + tail


def triple_rows_to_csv(rows) -> Iterator[str]:
    """The lattice-triple CSV as newline-terminated lines, header first.

    The three points of a row are count tuples; each distinct point's text
    is rendered once.
    """
    yield LATTICE_CSV_HEADER + "\n"
    yield from _triple_lines(rows, True)


def triple_csv_chunk(rows, points_recur: bool = False) -> list[str]:
    """The lattice-triple CSV lines of ``rows``, without the header: the part
    of the CSV that one index range of the suite renders.

    The lines come joined in blocks of up to 1024, so that no list of every
    line is ever held.  Each distinct point's text is kept for reuse only if
    ``points_recur`` (see :func:`_csv_memo`), so that otherwise the memory
    does not grow with the distinct points.
    """
    lines = _triple_lines(rows, points_recur)
    blocks = []
    while block := "".join(islice(lines, 1024)):
        blocks.append(block)
    return blocks


def _triple_lines(rows, points_recur: bool) -> Iterator[str]:
    # every field of a row is an inline lookup, and a function runs only on
    # a miss: lattice fields are floats by construction, and a point is
    # always a miss where points do not recur
    point, point_miss, real, field = _csv_memo(points_recur)
    line = "%s%s%s%s,%s,%s,%s,%s,%s\n"  # a point's text ends with its comma
    for a, b, c, d_ab, d_bc, d_ac, slack, lhs, rhs in rows:
        yield line % (
            point(a) or point_miss(a), point(b) or point_miss(b),
            point(c) or point_miss(c), real(d_ab) or field(d_ab),
            real(d_bc) or field(d_bc), real(d_ac) or field(d_ac),
            real(slack) or field(slack), real(lhs) or field(lhs),
            real(rhs) or field(rhs),
        )


def _json_str(text: str) -> str:
    """json.dumps(text); json is loaded only for a text that needs escapes."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    import json

    return json.dumps(text)


def json_dumps(obj) -> str:
    """JSON with sorted keys, two-space indent, and 17-digit floats."""
    return "".join(json_pieces(obj))


def json_pieces(obj) -> list[str]:
    """The text of ``json_dumps(obj)`` as pieces in order, for a writer that
    needs no joined text.  A dict of scalars is rendered once per object and
    depth, however often it recurs (a suite's shared summaries)."""
    out: list[str] = []
    _write_json(obj, out, 0, {})
    out.append("\n")
    return out


def _write_json(obj, out: list[str], depth: int, memo: dict) -> None:
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
        out.append(_json_str(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        # obj lives as long as the document, so its id names it
        text = memo.get((id(obj), depth))
        if text is not None:
            out.append(text)
            return
        flat = not any(isinstance(v, (dict, list, tuple)) for v in obj.values())
        start = len(out)
        out.append("{\n")
        keys = sorted(obj.keys())
        for pos, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            out.append(inner + _json_str(key) + ": ")
            _write_json(obj[key], out, depth + 1, memo)
            out.append(",\n" if pos < len(keys) - 1 else "\n")
        out.append(pad + "}")
        if flat:
            out[start:] = [memo.setdefault((id(obj), depth), "".join(out[start:]))]
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for pos, item in enumerate(seq):
            out.append(inner)
            _write_json(item, out, depth + 1, memo)
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
