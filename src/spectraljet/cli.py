"""Command-line front end: wick / lattice / verify / curvature / report.

--model takes every kind that ``manifolds.make_model`` accepts, the round
sphere of every dimension included, and verify any --max-degree; the one
degree limit of a command is that of ``wick --graphs``
(``oracles.ENUMERATION_MAX_DEGREE``).

lattice, verify and curvature take --config, --out-json, --out if they
write a CSV, and exactly the settings flags they read (``COMMAND_SETTINGS``);
each settings flag sets the config path that is its argparse dest.

Exit codes: 0 all checks passed, 1 a tolerance failed, 2 usage or config
error, including a flag the command does not take or an abbreviated
flag, an unknown model kind, a config key that is unknown or that the
command does not read, a non-finite config number, a negative tolerance,
a hard cap that is not an integer >= 1, a spectral sum that hits its
hard cap (TruncationError: raise t or raise policy.hard_cap), a t-grid
of more than ``asymptotics.MAX_GRID_COUNT`` times or whose smallest time
underflows to 0, a t-grid whose fitted limit is ill-conditioned, a
verify run of more than ``asymptotics.MAX_JET_PAIRS`` jet pairs, a
lattice max_degree above ``lattice.MAX_LATTICE_DEGREE``, a ``wick
--oracle`` value past the float range, a config or report input that
is not JSON (the error names its path) or is nested too deeply to read,
and a run too large for the memory it may take (MemoryError).
A report input must also be a JSON object with a boolean ``passed``.
All file output is deterministic for a fixed config and seed.

The console script and ``python -m spectraljet.cli`` run ``entrypoint``:
once ``main`` returns, it flushes stdout and stderr and leaves by
``os._exit``, which skips the interpreter's teardown (module and object
clean-up, about 8 ms per run, more than a whole curvature suite), so
``atexit`` handlers that a caller registers do not run.  A flush that
fails, as into a closed pipe, or an exception out of ``main`` leaves by
the normal path.  ``main`` itself returns to in-process callers.  This is
safe only while no output waits for teardown, which later code must keep:
every file is written and closed in a ``with`` block before ``main``
returns, and the package registers no ``atexit`` handler or finalizer and
starts no thread (the forked lattice workers leave by ``os._exit`` too).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
from itertools import chain

from . import multiindex
from .defaults import POLICY, TIME_GRID, TOLERANCES, TruncationError
# imported here, not in cmd_lattice: the benchmark's tracer binds the lattice
# functions of sys.modules once this module is imported.  The suite's engine
# (_triples: the sampler, the range loop, the fork fan-out) loads only when
# a suite runs.
from .lattice import points_recur, run_triple_suite
from .reporting import (
    LATTICE_CSV_HEADER,
    fmt_float,
    json_pieces,
    records_to_csv,
    triple_csv_chunk,
    write_text,
)
from .wick import wick_a, wick_b

# The model layers (manifolds, jets, asymptotics) are imported inside the
# functions of verify and curvature, the oracles inside that of wick and
# json where a config file or a report is read: no other command runs
# them, and a process that caches no bytecode compiles every module it
# imports.

DEFAULT_CONFIG = {
    "model": {"kind": None, "radius": 1.0, "radii": [1.0, 1.3]},
    "t": None,
    "t_grid": dict(TIME_GRID),
    "max_degree": 4,
    "policy": dict(POLICY),
    "seed": 42,
    "count": 10000,
    "tolerances": dict(TOLERANCES),
}


class ConfigError(ValueError):
    pass


def _copy_config(value):
    """A deep copy of a config of dicts, lists and scalars."""
    if isinstance(value, dict):
        return {key: _copy_config(item) for key, item in value.items()}
    return list(value) if isinstance(value, list) else value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A float, or an int that converts to one (json reads ints of any size)."""
    if _is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float)


def _type_mismatch(value, default) -> str | None:
    """What ``value`` must be to replace ``default``, or None if it is that."""
    if isinstance(default, dict):
        return None if isinstance(value, dict) else "an object"
    if isinstance(default, list):
        ok = isinstance(value, list) and all(_is_number(v) for v in value)
        return None if ok else "a list of numbers"
    if isinstance(default, int):
        return None if _is_int(value) else "an integer"
    if isinstance(default, float):
        return None if _is_number(value) else "a number"
    return None if value is None or _is_number(value) else "a number or null"


def _deep_update(base: dict, extra: dict, prefix: str = "") -> dict:
    """Merge ``extra`` into ``base``; every key must have a default, and every
    value that replaces one must have the default's type.  The top-level n
    (the lattice dimension, which has no default) and model.kind (a name,
    checked by make_model) pass unchecked."""
    for key, value in extra.items():
        name = prefix + key
        if name not in ("n", "model.kind"):
            if key not in base:
                raise ConfigError(f"unknown config key {name}")
            expected = _type_mismatch(value, base[key])
            if expected:
                raise ConfigError(f"config {name} must be {expected}, got {value!r}")
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value, name + ".")
        else:
            base[key] = value
    return base


def _check_finite(value, name: str = "") -> None:
    """Every number of the merged config must be finite: json reads NaN and
    Infinity, and float flags read 'nan' and 'inf'."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{name}.{key}" if name else key)
    elif isinstance(value, list):
        for item in value:
            _check_finite(item, name)
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config {name} must be finite, got {value!r}")


def _radii(text: str) -> list[float]:
    try:
        return [float(r) for r in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not comma-separated numbers: {text!r}") from None


def _t_grid(text: str) -> dict:
    try:
        start, ratio, count = text.split(":")
        return {"start": float(start), "ratio": float(ratio), "count": int(count)}
    except ValueError:
        raise argparse.ArgumentTypeError(f"not start:ratio:count: {text!r}") from None


# Each settings flag: the config path it sets, which is its argparse dest,
# its type and its help.
SETTINGS = {
    "--model": ("model.kind", str, "circle, torus or sphereN"),
    "--radius": ("model.radius", float, "circle or sphere radius"),
    "--radii": ("model.radii", _radii, "comma-separated torus radii"),
    "--t": ("t", float, "one heat time"),
    "--t-grid": ("t_grid", _t_grid, "geometric grid start:ratio:count; overrides --t"),
    "--policy-eps": ("policy.epsilon", float, "tail-rule epsilon"),
    "--max-degree": ("max_degree", int, "largest multi-index degree"),
    "--n": ("n", int, "lattice dimension"),
    "--count": ("count", int, "number of sampled triples"),
    "--seed": ("seed", int, "sampling seed"),
}
_MODEL_FLAGS = ("--model", "--radius", "--radii", "--t", "--t-grid", "--policy-eps")
# The settings flags each command reads, in the order build_config applies
# them; a command refuses every other flag.
COMMAND_SETTINGS = {
    "lattice": ("--n", "--count", "--max-degree", "--seed"),
    "verify": (*_MODEL_FLAGS, "--max-degree"),
    "curvature": _MODEL_FLAGS,
}


def _read_json(path: str, what: str):
    """The JSON value in the file at ``path``; a file that is not UTF-8 JSON
    is a config error that names ``what`` it is and its path."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ConfigError(f"bad {what} {path}: {exc}") from exc


def build_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- the settings flags of the command."""
    cfg = _copy_config(DEFAULT_CONFIG)
    if args.config:
        file_cfg = _read_json(args.config, "config file")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        _deep_update(cfg, file_cfg)
        # the keys of the command's settings flags, and the shared tolerances
        read = {"tolerances", *(SETTINGS[flag][0].partition(".")[0]
                                for flag in COMMAND_SETTINGS[args.command])}
        for key in file_cfg:
            if key not in read:
                raise ConfigError(f"config key {key} is not read by {args.command}")
    for flag in COMMAND_SETTINGS[args.command]:
        path = SETTINGS[flag][0]
        value = getattr(args, path)
        if value is not None:
            section, _, key = path.rpartition(".")
            (cfg[section] if section else cfg)[key] = value
            if path == "t_grid":
                cfg["t"] = None
    _check_finite(cfg)
    for key, value in cfg["tolerances"].items():
        if value < 0:
            raise ConfigError(f"config tolerances.{key} must be >= 0, got {value!r}")
    return cfg


def config_model(cfg: dict):
    """The model of the config, built with the config's truncation policy."""
    from .manifolds import TruncationPolicy, make_model  # not loaded by lattice, wick or report

    kind = cfg["model"].get("kind")
    if not kind:
        raise ConfigError("no model specified (use --model)")
    try:
        return make_model(
            kind, radius=cfg["model"].get("radius", 1.0),
            radii=cfg["model"].get("radii"),
            policy=TruncationPolicy(**cfg["policy"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_grid(cfg: dict) -> tuple[float, ...]:
    from .asymptotics import time_grid  # not loaded by lattice, wick or report

    if cfg.get("t") is not None:
        if cfg["t"] <= 0:
            raise ConfigError("t must be positive")
        return (float(cfg["t"]),)
    return time_grid(**cfg["t_grid"])


def _config_int(key: str, value, low: int) -> int:
    if not _is_int(value) or value < low:
        raise ConfigError(f"{key} must be an integer >= {low}, got {value!r}")
    return value


def config_lattice(cfg: dict) -> tuple[int, int, int]:
    """(n, max_degree, count) of the lattice suite; n defaults to 3."""
    n = cfg.get("n")
    return (
        _config_int("n", 3 if n is None else n, 1),
        _config_int("max_degree", cfg["max_degree"], 0),
        _config_int("count", cfg["count"], 1),
    )


def _a_text(a) -> str:
    if a.sign == 0:
        return "0"
    return f"{'+' if a.sign > 0 else '-'}{a.magnitude}"


def _b_text(b) -> str:
    if b.sign == 0:
        return "0"
    num, den = b.square.numerator, b.square.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    sign = "-" if b.sign < 0 else ""
    if rn * rn == num and rd * rd == den:
        return f"{sign}{rn}/{rd}" if rd != 1 else f"{sign}{rn}"
    return f"{sign}sqrt({num}/{den})"


def cmd_wick(args: argparse.Namespace) -> int:
    from .oracles import (  # not loaded by lattice, verify, curvature or report
        enumerate_admissible_graphs,
        gaussian_moment_oracle,
    )

    if args.n is None:
        raise ConfigError("wick needs --n")
    n = _config_int("n", args.n, 1)
    alpha = multiindex.parse(args.alpha, n)
    beta = multiindex.parse(args.beta, n)
    a = wick_a(alpha, beta)
    b = wick_b(alpha, beta)
    # every value is computed before the first line is printed, so a route
    # that fails (exit 2) leaves stdout empty
    lines = [f"A={_a_text(a)} B={_b_text(b)} ({fmt_float(b.value)})"]
    if args.graphs:
        g = enumerate_admissible_graphs(alpha, beta)
        sign = "none" if g.common_sign is None else f"{g.common_sign:+d}"
        lines.append(f"graphs: count={g.count} sign={sign}")
    if args.oracle:
        lines.append(f"oracle: {fmt_float(gaussian_moment_oracle(alpha, beta))}")
    print("\n".join(lines))
    return 0


def _write_suites(args: argparse.Namespace, cfg: dict, model, suites) -> bool:
    """Write the summary JSON of ``suites`` if asked; True if all passed."""
    passed = all(s.passed for s in suites)
    if args.out_json:
        write_text(args.out_json, json_pieces({
            "command": args.command,
            "config": cfg,
            "model": model.describe(),
            "passed": passed,
            "suites": {s.name: s.summary_dict() for s in suites},
        }))
    return passed


def cmd_verify(args: argparse.Namespace) -> int:
    from .asymptotics import jet_relation_suite  # not loaded by lattice, wick or report

    cfg = build_config(args)
    model = config_model(cfg)
    max_degree = _config_int("max_degree", cfg["max_degree"], 0)
    result = jet_relation_suite(model, max_degree, config_grid(cfg), cfg["tolerances"])
    if args.out:
        write_text(args.out, records_to_csv(result.model, result.records))
    passed = _write_suites(args, cfg, model, [result])
    print(
        f"verify: model={model.label} max_degree={max_degree} "
        f"checks={len(result.summaries)} passed={passed}"
    )
    return 0 if passed else 1


def cmd_curvature(args: argparse.Namespace) -> int:
    from .asymptotics import curvature_suites  # not loaded by lattice, wick or report

    cfg = build_config(args)
    model = config_model(cfg)
    suites = curvature_suites(model, config_grid(cfg), cfg["tolerances"])
    passed = _write_suites(args, cfg, model, suites)
    for s in suites:
        print(f"curvature: suite={s.name} checks={len(s.summaries)} passed={s.passed}")
    return 0 if passed else 1


def _keep_nothing(rows) -> None:
    """A suite ``render`` that keeps no row; the suite checks them all."""


def cmd_lattice(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    n, max_degree, count = config_lattice(cfg)
    # each index range of the suite renders its own CSV lines, so no list
    # of rows is ever built, and keeps point texts only where points recur
    render = _keep_nothing
    if args.out:
        render = partial(triple_csv_chunk,
                         points_recur=points_recur(n, max_degree, count))
    chunks, report = run_triple_suite(
        n=n,
        max_degree=max_degree,
        count=count,
        seed=cfg["seed"],
        triangle_slack_tol=cfg["tolerances"]["triangle_slack"],
        render=render,
    )
    if args.out:
        write_text(args.out, chain([LATTICE_CSV_HEADER + "\n"], *chunks))
    summary = report._asdict()
    del summary["worst_triple"]  # the JSON report has never carried it
    doc = {"command": "lattice", "config": cfg, "passed": report.passed(),
           "report": summary}
    if args.out_json:
        write_text(args.out_json, json_pieces(doc))
    print(
        f"lattice: n={report.n} max_degree={report.max_degree} "
        f"count={report.count} passed={report.passed()}"
    )
    return 0 if report.passed() else 1


def _any_failures(obj) -> bool:
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key in ("pass", "passed") and value is False:
                return True
            if _any_failures(value):
                return True
    elif isinstance(obj, (list, tuple)):
        return any(_any_failures(v) for v in obj)
    return False


def _read_report(path: str) -> dict:
    """A report input: a JSON object whose ``passed`` is a boolean, the
    verdict that every command writes."""
    report = _read_json(path, "report input")
    if not (isinstance(report, dict) and isinstance(report.get("passed"), bool)):
        raise ConfigError(f'bad report input {path}: not a JSON object with '
                          f'a boolean "passed"')
    return report


def cmd_report(args: argparse.Namespace) -> int:
    reports = [_read_report(path) for path in args.inputs]
    doc = {
        "command": "report",
        "inputs": list(args.inputs),
        "passed": not _any_failures(reports),
        "reports": reports,
    }
    pieces = json_pieces(doc)
    if args.out:
        write_text(args.out, pieces)
        print(f"report: merged={len(reports)} passed={doc['passed']}")
    else:
        sys.stdout.writelines(pieces)  # pure JSON on stdout for piping
    return 0 if doc["passed"] else 1


def _add_settings(parser: argparse.ArgumentParser, command: str,
                  csv_out: bool) -> None:
    """The settings flags of ``command``, --config and the output flags."""
    for flag in COMMAND_SETTINGS[command]:
        path, kind, help_text = SETTINGS[flag]
        parser.add_argument(flag, dest=path, type=kind, help=help_text)
    parser.add_argument("--config", help="JSON config file")
    if csv_out:
        parser.add_argument("--out", help="CSV output path")
    parser.add_argument("--out-json", dest="out_json",
                        help="JSON summary output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectraljet",
        description="Wick constants, heat-kernel embedding jets, and the "
                    "angle metric on the multi-index lattice",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p_wick = command("wick", cmd_wick, "print A and B for one pair")
    p_wick.add_argument("--alpha", default="")
    p_wick.add_argument("--beta", default="")
    p_wick.add_argument("--n", type=int)
    p_wick.add_argument("--graphs", action="store_true",
                        help="also enumerate admissible graphs")
    p_wick.add_argument("--oracle", action="store_true",
                        help="also print the Gaussian-moment value")

    p_lat = command("lattice", cmd_lattice, "angle-metric sampling suites")
    p_lat.add_argument("action", choices=["sample"])
    _add_settings(p_lat, "lattice", csv_out=True)
    p_ver = command("verify", cmd_verify, "jet relations against Wick targets")
    _add_settings(p_ver, "verify", csv_out=True)
    p_cur = command("curvature", cmd_curvature, "curvature and isometry suites")
    _add_settings(p_cur, "curvature", csv_out=False)

    p_rep = command("report", cmd_report, "merge JSON summaries")
    p_rep.add_argument("--inputs", nargs="+", required=True)
    p_rep.add_argument("--out", type=str)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except MemoryError:
        # matched first, since the tuple of the next clause is built when it
        # is matched; and the traceback holds the run's frames, and with them
        # its memory, until the handler ends, so the message follows it
        pass
    except (OSError, ValueError, TruncationError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("error: out of memory; lower the size of the run", file=sys.stderr)
    return 2


def entrypoint() -> None:
    """Run ``main`` as a process, which leaves as the module docstring says."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
