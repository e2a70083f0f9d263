"""The maintenance scripts and the benchmark's tracer still run against
the package's public API."""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from subdiv.localh import local_h
from subdiv.triangulate import edgewise

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("scan_esd_boundary.py", ["--n-max", "3", "--r-max", "3"]),
    ("verify_all.py", ["foata"]),
    ("scan_esd_boundary.py", []),  # its default grid passes FACETS_CAP
])
def test_script_exits_zero(script, args):
    done = run_script(script, *args)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120)


def test_scan_cells_match_the_built_refinement():
    """The scan reads each cell off the uniform expansion; local h of
    the built esd_r is its oracle."""
    spec = importlib.util.spec_from_file_location(
        "scan_esd_boundary", ROOT / "scripts" / "scan_esd_boundary.py")
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    for n in range(2, 6):
        for r in range(1, 5):
            built = local_h(edgewise(scan.starred_simplex(n), r))
            assert scan.starred_local_h(n, r) == built, (n, r)


def test_verify_all_has_no_jobs_flag():
    done = run_script("verify_all.py", "--jobs", "2", "foata")
    assert done.returncode == 2
    assert done.stdout == ""
    assert "unrecognized arguments: --jobs" in done.stderr


def test_make_goldens_reproduces_the_committed_files(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "make_goldens", ROOT / "scripts" / "make_goldens.py")
    make_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_goldens)
    monkeypatch.setattr(make_goldens, "GOLDEN", tmp_path)
    make_goldens.run()
    for which in (1, 2, 3):
        name = f"table{which}.txt"
        committed = ROOT / "tests" / "golden" / name
        assert (tmp_path / name).read_bytes() == committed.read_bytes()


def test_tracer_finds_every_traced_name():
    """Every name the benchmark tracer wraps exists, and unwrapping
    restores it; the tracer otherwise only runs in a traced benchmark."""
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {}
    for path in sorted((ROOT / "src" / "subdiv").glob("*.py")):
        if path.stem != "__init__":
            modules[path.stem] = importlib.import_module(f"subdiv.{path.stem}")
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        realroot = modules["realroot"]
        assert realroot.interlaces is not before["realroot"]["interlaces"]
    finally:
        tracer.uninstall()
    for name, mod in modules.items():
        assert all(vars(mod)[attr] is value
                   for attr, value in before[name].items()), name
    realroot.sturm_chain.cache_info()
