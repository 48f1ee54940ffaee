"""The experiment scripts, the benchmark's trace hooks and the public
names run against the library."""

import csv
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import carpetdim
from carpetdim.fixtures import FIXTURE_BUILDERS

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_fixture_survey_runs(tmp_path):
    proc = run_script("fixture_survey.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in FIXTURE_BUILDERS:
        assert f"== {name} ==" in proc.stdout


def test_convergence_study_writes_the_rows_it_reports(tmp_path):
    out = tmp_path / "series.csv"
    proc = run_script("convergence_study.py", "--n-max", "8", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert f"wrote 24 rows to {out}" in proc.stderr
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24


def test_trace_hooks_resolve():
    """Every name the benchmark tracer patches is still looked up where
    it says, so ``perfbench/run.py --trace 1`` can install it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_exports_resolve():
    """Every name in ``carpetdim.__all__`` and in each submodule's
    ``__all__`` is defined there, and none is listed twice."""
    modules = [carpetdim] + [
        importlib.import_module(f"carpetdim.{info.name}")
        for info in pkgutil.iter_modules(carpetdim.__path__)
    ]
    for module in modules:
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
