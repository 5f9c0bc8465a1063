"""Command-line front end: wick / lattice / verify / curvature / report.

Exit codes: 0 all checks passed, 1 a tolerance failed, 2 usage or config
error, including an unknown config key, a non-finite config number, a
negative tolerance, a hard cap that is not an integer >= 1, and a spectral
sum that hits its hard cap (TruncationError: raise t or raise
policy.hard_cap).  All file
output is deterministic for a fixed config and seed.
"""
from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from itertools import chain

from . import multiindex
from .asymptotics import (
    TIME_GRID,
    TOLERANCES,
    curvature_suite,
    isometry_suite,
    jet_relation_suite,
    mean_curvature_suite,
    scalar_ricci_suite,
    scalar_suite,
    time_grid,
    umbilical_suite,
)
from .lattice import TRIANGLE_SLACK, run_triple_suite
from .manifolds import DEFAULT_POLICY, TruncationError, TruncationPolicy, make_model
from .reporting import (
    LATTICE_CSV_HEADER,
    fmt_float,
    json_dumps,
    records_to_csv,
    triple_csv_chunk,
    write_text,
)
from .wick import enumerate_admissible_graphs, gaussian_moment_oracle, wick_a, wick_b

DEFAULT_CONFIG = {
    "model": {"kind": None, "radius": 1.0, "radii": [1.0, 1.3]},
    "t": None,
    "t_grid": dict(TIME_GRID),
    "max_degree": 4,
    "policy": {
        key: getattr(DEFAULT_POLICY, key) for key in ("epsilon", "rho", "hard_cap")
    },
    "seed": 42,
    "count": 10000,
    "tolerances": {**TOLERANCES, "triangle_slack": TRIANGLE_SLACK},
}


class ConfigError(ValueError):
    pass


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


def build_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit CLI flags."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad config file {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        _deep_update(cfg, file_cfg)
    if getattr(args, "model", None):
        cfg["model"]["kind"] = args.model
    if getattr(args, "radius", None) is not None:
        cfg["model"]["radius"] = args.radius
    if getattr(args, "radii", None):
        try:
            cfg["model"]["radii"] = [float(r) for r in args.radii.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --radii {args.radii!r}") from exc
    if getattr(args, "t", None) is not None:
        cfg["t"] = args.t
    if getattr(args, "t_grid", None):
        parts = args.t_grid.split(":")
        if len(parts) != 3:
            raise ConfigError("--t-grid must look like start:ratio:count")
        try:
            cfg["t_grid"] = {
                "start": float(parts[0]),
                "ratio": float(parts[1]),
                "count": int(parts[2]),
            }
        except ValueError as exc:
            raise ConfigError(f"bad --t-grid {args.t_grid!r}") from exc
        cfg["t"] = None
    if getattr(args, "max_degree", None) is not None:
        cfg["max_degree"] = args.max_degree
    if getattr(args, "policy_eps", None) is not None:
        cfg["policy"]["epsilon"] = args.policy_eps
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "count", None) is not None:
        cfg["count"] = args.count
    if getattr(args, "n", None) is not None:
        cfg["n"] = args.n
    _check_finite(cfg)
    for key, value in cfg["tolerances"].items():
        if value < 0:
            raise ConfigError(f"config tolerances.{key} must be >= 0, got {value!r}")
    return cfg


def config_model(cfg: dict):
    kind = cfg["model"].get("kind")
    if not kind:
        raise ConfigError("no model specified (use --model)")
    try:
        return make_model(
            kind, radius=cfg["model"].get("radius", 1.0),
            radii=cfg["model"].get("radii"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_grid(cfg: dict) -> tuple[float, ...]:
    if cfg.get("t") is not None:
        if cfg["t"] <= 0:
            raise ConfigError("t must be positive")
        return (float(cfg["t"]),)
    return time_grid(**cfg["t_grid"])


def config_policy(cfg: dict) -> TruncationPolicy:
    return TruncationPolicy(**cfg["policy"])


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
    if args.n is None:
        raise ConfigError("wick needs --n")
    n = _config_int("n", args.n, 1)
    alpha = multiindex.parse(args.alpha, n)
    beta = multiindex.parse(args.beta, n)
    a = wick_a(alpha, beta)
    b = wick_b(alpha, beta)
    print(f"A={_a_text(a)} B={_b_text(b)} ({fmt_float(b.value)})")
    if args.graphs:
        g = enumerate_admissible_graphs(alpha, beta)
        sign = "none" if g.common_sign is None else f"{g.common_sign:+d}"
        print(f"graphs: count={g.count} sign={sign}")
    if args.oracle:
        print(f"oracle: {fmt_float(gaussian_moment_oracle(alpha, beta))}")
    return 0


def _write_suites(args: argparse.Namespace, cfg: dict, model, suites) -> bool:
    """Write the summary JSON of ``suites`` if asked; True if all passed."""
    passed = all(s.passed for s in suites)
    if args.out_json:
        write_text(args.out_json, json_dumps({
            "command": args.command,
            "config": cfg,
            "model": model.describe(),
            "passed": passed,
            "suites": {s.name: s.summary_dict() for s in suites},
        }))
    return passed


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    model = config_model(cfg)
    max_degree = _config_int("max_degree", cfg["max_degree"], 0)
    result = jet_relation_suite(
        model, max_degree, config_grid(cfg), config_policy(cfg),
        cfg["tolerances"],
    )
    if args.out:
        write_text(args.out, records_to_csv(result.records))
    passed = _write_suites(args, cfg, model, [result])
    print(
        f"verify: model={model.label} max_degree={max_degree} "
        f"checks={len(result.summaries)} passed={passed}"
    )
    return 0 if passed else 1


def cmd_curvature(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    model = config_model(cfg)
    grid = config_grid(cfg)
    if len(grid) < 4:
        raise ConfigError(
            "curvature suites need a t-grid of at least 4 times "
            f"(--t-grid start:ratio:count), got {len(grid)}"
        )
    policy = config_policy(cfg)
    runs = [scalar_suite, isometry_suite, mean_curvature_suite, umbilical_suite]
    if model.n >= 2:
        runs += [curvature_suite, scalar_ricci_suite]
    suites = [run(model, grid, policy, cfg["tolerances"]) for run in runs]
    passed = _write_suites(args, cfg, model, suites)
    for s in suites:
        print(f"curvature: suite={s.name} checks={len(s.summaries)} passed={s.passed}")
    return 0 if passed else 1


def _keep_nothing(rows) -> None:
    """A suite ``render`` that keeps no row; the suite checks them all."""


def cmd_lattice(args: argparse.Namespace) -> int:
    if args.action != "sample":
        raise ConfigError(f"unknown lattice action {args.action!r}")
    cfg = build_config(args)
    n, max_degree, count = config_lattice(cfg)
    # each index range of the suite renders its own CSV lines, so no list
    # of rows is ever built
    chunks, report = run_triple_suite(
        n=n,
        max_degree=max_degree,
        count=count,
        seed=cfg["seed"],
        triangle_slack_tol=cfg["tolerances"]["triangle_slack"],
        render=triple_csv_chunk if args.out else _keep_nothing,
    )
    if args.out:
        write_text(args.out, chain([LATTICE_CSV_HEADER + "\n"], *chunks))
    summary = report._asdict()
    del summary["worst_triple"]  # the JSON report has never carried it
    doc = {"command": "lattice", "config": cfg, "passed": report.passed(),
           "report": summary}
    if args.out_json:
        write_text(args.out_json, json_dumps(doc))
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


def cmd_report(args: argparse.Namespace) -> int:
    reports = []
    for path in args.inputs:
        with open(path, "r", encoding="utf-8") as fh:
            reports.append(json.load(fh))
    doc = {
        "command": "report",
        "inputs": list(args.inputs),
        "passed": not _any_failures(reports),
        "reports": reports,
    }
    text = json_dumps(doc)
    if args.out:
        write_text(args.out, text)
        print(f"report: merged={len(reports)} passed={doc['passed']}")
    else:
        sys.stdout.write(text)  # pure JSON on stdout for piping
    return 0 if doc["passed"] else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=["circle", "torus", "sphere2", "sphere3"])
    parser.add_argument("--radius", type=float)
    parser.add_argument("--radii", type=str, help="comma-separated torus radii")
    parser.add_argument("--t", type=float)
    parser.add_argument("--t-grid", dest="t_grid", type=str,
                        help="geometric grid start:ratio:count")
    parser.add_argument("--max-degree", dest="max_degree", type=int)
    parser.add_argument("--policy-eps", dest="policy_eps", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--config", type=str, help="JSON config file")
    parser.add_argument("--out", type=str, help="CSV output path")
    parser.add_argument("--out-json", dest="out_json", type=str,
                        help="JSON summary output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectraljet",
        description="Wick constants, heat-kernel embedding jets, and the "
                    "angle metric on the multi-index lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_wick = sub.add_parser("wick", help="print A and B for one pair")
    p_wick.add_argument("--alpha", default="")
    p_wick.add_argument("--beta", default="")
    p_wick.add_argument("--n", type=int)
    p_wick.add_argument("--graphs", action="store_true",
                        help="also enumerate admissible graphs")
    p_wick.add_argument("--oracle", action="store_true",
                        help="also print the Gaussian-moment value")
    p_wick.set_defaults(func=cmd_wick)

    p_lat = sub.add_parser("lattice", help="angle-metric sampling suites")
    p_lat.add_argument("action", choices=["sample"])
    p_lat.add_argument("--n", type=int)
    p_lat.add_argument("--count", type=int)
    _add_common(p_lat)
    p_lat.set_defaults(func=cmd_lattice)

    p_ver = sub.add_parser("verify", help="jet relations against Wick targets")
    _add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_cur = sub.add_parser("curvature", help="curvature and isometry suites")
    _add_common(p_cur)
    p_cur.set_defaults(func=cmd_curvature)

    p_rep = sub.add_parser("report", help="merge JSON summaries")
    p_rep.add_argument("--inputs", nargs="+", required=True)
    p_rep.add_argument("--out", type=str)
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (OSError, ValueError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
