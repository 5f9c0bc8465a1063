"""The traced run of the benchmark (bench/traced_child.py) rebinds each
layer's public functions by name and reads the sphere table cache, so those
names are a contract of the package: an op must give the same exit code and
the same bytes under the tracer as without it."""
import importlib.util
import json
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

pytest.importorskip("numpy")  # the tracer imports it before its first span

ROOT = Path(__file__).resolve().parents[1]
TRACED_CHILD = ROOT / "bench" / "traced_child.py"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("traced_child", TRACED_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    code = (
        "import json, sys\n"
        "import spectraljet.cli\n"
        "from spectraljet.manifolds import _sphere_series_tables\n"
        "_sphere_series_tables.cache_info()\n"
        "names = json.loads(sys.argv[1])\n"
        "missing = [f'{layer}.{name}' for layer, fns in names.items() for name in fns\n"
        "           if not hasattr(sys.modules[f'spectraljet.{layer}'], name)]\n"
        "print(json.dumps(missing))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(tracer.FUNCTIONS)],
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("argv, spans", [
    (["lattice", "sample", "--n", "3", "--max-degree", "4", "--count", "40",
      "--seed", "3"], ["lattice.run_triple_suite"]),
    # enough triples for two index ranges, so forked workers run all but the
    # last; on a machine with two or more CPUs they inherit the tracer
    (["lattice", "sample", "--n", "3", "--max-degree", "8", "--count", "2500",
      "--seed", "3"], ["lattice.run_triple_suite", "reporting.write_text"]),
    (["verify", "--model", "sphere2", "--max-degree", "2"],
     ["jets.compose_univariate", "jets.extract_mixed_partial"]),
], ids=["lattice", "lattice-forked", "verify-sphere2"])
def test_traced_op_matches_untraced(tmp_path, argv, spans):
    outputs = ["--out", "out.csv", "--out-json", "out.json"]

    def run(*prefix):
        for name in ("out.csv", "out.json"):
            (tmp_path / name).unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, *prefix, *argv, *outputs],
                              cwd=tmp_path, env=ENV, capture_output=True,
                              timeout=120)
        files = [(tmp_path / name).read_bytes() for name in ("out.csv", "out.json")]
        return proc.returncode, proc.stdout, proc.stderr, files

    plain = run("-m", "spectraljet.cli")
    traced = run(str(TRACED_CHILD), "0", str(tmp_path / "trace"), "--")
    assert plain[0] == 0, plain[2]
    assert traced[0] == 0, traced[2]
    assert traced[1] == plain[1]
    assert traced[3] == plain[3]
    # the spans file starts with the name id of each span entered
    meta = json.loads((tmp_path / "trace.json").read_text())
    ids = array("i")
    with open(tmp_path / "trace.spans", "rb") as fh:
        ids.fromfile(fh, meta["spans"])
    assert set(spans) <= {meta["names"][i] for i in ids}
