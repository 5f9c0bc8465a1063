"""Run one spectraljet CLI op with each layer's public functions in spans.

    python bench/traced_child.py OP_ID PREFIX -- CLI_ARG...

The tracer lives only in this file.  It times the import of each layer
module, then rebinds each layer's public functions, at every module
attribute (or class attribute) that binds them, to a wrapper that records a
span, and only then calls ``spectraljet.cli.main``.  Spans (name, start,
end, parent) stay in memory and are written when the op ends, to
``PREFIX.spans`` as four packed arrays and to ``PREFIX.json`` with the span
names, the op id and the counters.  The exit code is the CLI's.
"""
from __future__ import annotations

import functools
import importlib.machinery
import json
import os
import sys
import time
from array import array

import numpy  # noqa: F401  imported before the first span: start-up, not a layer

now = time.perf_counter_ns

# Public functions per layer, as the benchmark defines the layers.
FUNCTIONS = {
    "wick": ("wick_a", "wick_b"),
    "multiindex": ("pair_profile", "symmetric_difference_size", "parse",
                   "enumerate_multiindices"),
    "lattice": ("run_triple_suite", "sample_multiindex", "angle_distance",
                "distance_comparison_check", "is_orthogonal"),
    "jets": ("compose_univariate", "extract_mixed_partial"),
    "manifolds": ("make_model", "pullback_metric", "ricci_scalar_extract",
                  "curvature_symmetry_residuals", "mean_curvature_proxy",
                  "third_jet_umbilical"),
    "asymptotics": ("limit_fit", "fit_on_smallest", "jet_relation_suite",
                    "scalar_suite", "isometry_suite", "mean_curvature_suite",
                    "umbilical_suite", "curvature_suite", "scalar_ricci_suite"),
    "reporting": ("records_to_csv", "triple_rows_to_csv", "json_dumps",
                  "write_text"),
    "cli": ("main",),
}
# Methods per layer, wrapped on every class of the module that defines them.
METHODS = {
    "jets": ("__mul__", "__rmul__", "__add__", "__radd__"),
    "manifolds": ("diag_jet_with_cutoff", "gram_entry", "gram_difference"),
}


class Tracer:
    """Spans in entry order; a span's id is its index."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack = [-1]
        self.counters = {
            "wick_b_calls": 0,
            "wick_b_distinct_pairs": 0,
            "modes_summed": 0,
            "bytes_written": 0,
            "table_cache_hits": 0,
            "table_cache_misses": 0,
        }
        self.wick_b_pairs: set = set()

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def enter(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.end.append(0)
        self.parent.append(self.stack[-1])
        self.stack.append(i)
        self.start.append(now())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = now()
        self.stack.pop()

    def write(self, prefix: str) -> None:
        with open(prefix + ".spans", "wb") as fh:
            for arr in (self.name, self.start, self.end, self.parent):
                arr.tofile(fh)
        meta = {"op_id": self.op_id, "spans": len(self.name), "names": self.names,
                "counters": self.counters}
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def wrap(tracer: Tracer, name: str, fn, after=None):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(i)
        if after is not None:
            after(args, result)
        return result

    return wrapper


class LayerImportSpans:
    """Meta-path finder that puts each layer module's execution in a span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path=None, target=None):
        package, _, layer = fullname.rpartition(".")
        if package != "spectraljet" or layer not in FUNCTIONS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        nid = self.tracer.name_id(f"{layer}.import")
        tracer = self.tracer

        def traced_exec(module):
            i = tracer.enter(nid)
            try:
                exec_module(module)
            finally:
                tracer.exit(i)

        spec.loader.exec_module = traced_exec
        return spec


def install(tracer: Tracer) -> None:
    """Rebind every public function and method of each layer to its wrapper."""
    modules = [m for name, m in sys.modules.items()
               if name == "spectraljet" or name.startswith("spectraljet.")]
    counters = tracer.counters

    def after_wick_b(args, result):
        counters["wick_b_calls"] += 1
        key = (args[0].counts, args[1].counts)
        if key not in tracer.wick_b_pairs:
            tracer.wick_b_pairs.add(key)
            counters["wick_b_distinct_pairs"] += 1

    def after_cutoff(args, result):
        counters["modes_summed"] += result[1]

    def after_write(args, result):
        counters["bytes_written"] += os.path.getsize(args[0])

    after = {"wick.wick_b": after_wick_b, "reporting.write_text": after_write}
    for layer, names in FUNCTIONS.items():
        module = sys.modules[f"spectraljet.{layer}"]
        for fname in names:
            original = getattr(module, fname)
            wrapper = wrap(tracer, f"{layer}.{fname}", original,
                           after.get(f"{layer}.{fname}"))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
    for layer, names in METHODS.items():
        module = sys.modules[f"spectraljet.{layer}"]
        classes = [c for c in vars(module).values()
                   if isinstance(c, type) and c.__module__ == module.__name__]
        for cls in classes:
            for mname in names:
                if mname in vars(cls):
                    after_fn = after_cutoff if mname == "diag_jet_with_cutoff" else None
                    setattr(cls, mname, wrap(tracer, f"{layer}.{cls.__name__}.{mname}",
                                             vars(cls)[mname], after_fn))


def main() -> int:
    op_id, prefix, sep, *cli_argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_child.py OP_ID PREFIX -- CLI_ARG...")
    tracer = Tracer(int(op_id))
    sys.meta_path.insert(0, LayerImportSpans(tracer))
    root = tracer.enter(tracer.name_id("cli.op"))
    import spectraljet.cli
    from spectraljet.manifolds import _sphere_series_tables

    setup = tracer.enter(tracer.name_id("trace.install"))
    install(tracer)
    tracer.exit(setup)
    rc = spectraljet.cli.main(cli_argv)
    tracer.exit(root)
    info = _sphere_series_tables.cache_info()
    tracer.counters["table_cache_hits"] = info.hits
    tracer.counters["table_cache_misses"] = info.misses
    tracer.write(prefix)
    return rc


if __name__ == "__main__":
    sys.exit(main())
