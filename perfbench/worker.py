"""One workload run inside a fresh process, started by run.py.

``worker.py setup PLAN DIR`` times importing carpetdim and writing,
loading and validating the plan's spec documents, and prints seconds.

``worker.py run PLAN DIR SECONDS TRACE RESULT`` finds the depth of
every bracket job (untimed probes), checks exact against collapsed mode
once per generated carpet, then repeats the job list for SECONDS and
writes the metrics to RESULT.  Every job is one in-process call of
``carpetdim.cli.main``; its output is checked after the clock stops.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402

OP_TIMEOUT_S = 60  # one call longer than this is a failed operation
MAX_PROBES = 40  # depth steps a search may take before the job fails
EXACT_DEPTH = 6  # exact mode walks every word, so only a shallow depth
# Times are reported in seconds at the speed where reference_kernel()
# takes REF_SECONDS.  The shared host's CPU speed drifts by up to 2x
# within a minute; dividing each operation's time by the kernel's time
# measured around it removes that drift from the comparison of commits.
REF_SECONDS = 0.01


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S} s")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_kernel() -> float:
    """Fixed interpreter work of the engine's kind: tuple keys, dict
    lookups, gcd and log.  Benchmark code only, so the same on every
    commit."""
    memo = {}
    acc = 0.0
    for i in range(1, 12001):
        key = (i % 7, (i % 13, i % 11, i % 5))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = math.log(gcd(i, 720) + i)
        acc += hit
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def setup(plan_path: str, spec_dir: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        specs = json.load(fh)["specs"]
    t0 = time.perf_counter()
    from carpetdim.sft import CarpetSpec, carpet_to_factor, validate_sft
    from carpetdim.specfile import load_system, write_document

    for name, doc in specs.items():
        path = os.path.join(spec_dir, name + ".json")
        write_document(doc, path)
        obj = load_system(path)
        fs = carpet_to_factor(obj)[0] if isinstance(obj, CarpetSpec) else obj
        validate_sft(fs.source)
    elapsed = time.perf_counter() - t0
    ref = statistics.median(time_reference() for _ in range(5))
    print(repr(elapsed * REF_SECONDS / ref))


class Runner:
    """Calls the CLI and keeps the operation counts of the run."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures: dict[str, str] = {}
        self.tracer = None
        self.job_id = 0

    def call(self, argv):
        """Returns (seconds, report or None, failure reason or None)."""
        argv = [str(a) for a in argv] + ["--no-timestamp"]
        self.attempted += 1
        self.job_id += 1
        out, err = io.StringIO(), io.StringIO()
        main = self.cli.main
        elapsed = 0.0
        if self.tracer is not None:
            self.tracer.job = self.job_id
            main = self.tracer.span("cli", main)
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = main(argv)
                finally:
                    elapsed = time.perf_counter() - t0
        # the run must survive any crash of one call and count it
        except Exception as exc:
            return elapsed, None, self._fail(argv, f"{type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if code != 0:
            return elapsed, None, self._fail(argv, f"exit {code}: {err.getvalue().strip()}")
        try:
            return elapsed, json.loads(out.getvalue()), None
        except ValueError as exc:
            return elapsed, None, self._fail(argv, f"report is not JSON: {exc}")

    def _fail(self, argv, reason):
        self.failed += 1
        self.failures.setdefault(" ".join(argv), reason.splitlines()[0][:200])
        return reason

    def reject(self, argv, reason):
        """An output check failed: the operation is failed and incorrect."""
        self.incorrect += 1
        return self._fail([str(a) for a in argv], "check: " + reason)


def argv_of(job, spec_dir, work_dir):
    argv = [job["cmd"], "--spec", os.path.join(spec_dir, job["spec"] + ".json")]
    if "depth" in job and job["cmd"] in ("dimension", "pressure"):
        argv += ["--depth", job["depth"]]
    argv += job.get("args", [])
    if job.get("csv"):
        argv += ["--csv", os.path.join(work_dir, job["spec"] + ".csv")]
    return argv


def width(report, doc):
    lower, upper = checks.dimension_bracket(report, doc)
    return upper - lower


def find_depth(runner, job, doc, spec_dir, work_dir):
    """Smallest depth whose bracket fits the target; returns the depth
    and the bracket of the depth below it, or (None, None)."""
    probe = dict(job)
    fits = {}

    def fits_at(depth):
        if depth not in fits:
            probe["depth"] = depth
            _, report, failure = runner.call(argv_of(probe, spec_dir, work_dir))
            fits[depth] = None if failure else (
                width(report, doc) <= job["target"], checks.dimension_bracket(report, doc))
        return fits[depth]

    depth = job["guess"]
    for _ in range(MAX_PROBES):
        here = fits_at(depth)
        if here is None:
            return None, None
        if not here[0]:
            depth += 1
            continue
        if depth == 1:
            return 1, None
        below = fits_at(depth - 1)
        if below is None:
            return None, None
        if not below[0]:
            return depth, below[1]
        depth -= 1
    return None, None


def check(job, report, doc, work_dir, brackets):
    """The output check of one job; ``brackets`` holds, per spec, the
    intersection of its brackets so far in this pass, which all contain
    the same pressure."""
    kind = job.get("check") or job["cmd"]
    if "target" in job:
        return checks.check_width(report, doc, job["target"], job["probe"] or (-math.inf, math.inf))
    if kind == "closed_form":
        return checks.check_closed_form(report, doc)
    if kind == "pressure":
        reason, brackets[job["spec"]] = checks.check_pressure_meets(
            report, brackets.get(job["spec"], (-math.inf, math.inf)))
        if reason:
            return reason
        if job.get("csv"):
            return checks.check_pressure_csv(report, os.path.join(work_dir, job["spec"] + ".csv"))
        return None
    if kind == "gibbs":
        return checks.check_gibbs(report)
    if kind == "additivity":
        return checks.check_additivity(report, doc)
    if kind == "cesaro":
        return checks.check_cesaro(report)
    if kind == "counts":
        return checks.check_counts(report, doc)
    if kind == "compensation":
        return checks.check_compensation(report, job["expect"])
    raise ValueError(f"no check for job kind {kind!r}")


def one_pass(runner, jobs, specs, spec_dir, work_dir):
    """One pass over the job list.  Returns each operation's time in
    reference seconds, scaled by the kernel timed just before and after
    it, and whether it passed."""
    times, passed, raw, widths, log_k = [], [], [], [], []
    brackets = {}
    gc.collect()  # every pass starts from the same heap
    refs = [time_reference()]
    for job in jobs:
        argv = argv_of(job, spec_dir, work_dir)
        elapsed, report, failure = runner.call(argv)
        refs.append(time_reference())
        raw.append(elapsed)
        scale = 2 * REF_SECONDS / (refs[-2] + refs[-1])
        times.append(elapsed * scale)
        if runner.tracer is not None:
            runner.tracer.scale[runner.job_id] = scale
        if failure is None:
            reason = check(job, report, specs[job["spec"]], work_dir, brackets)
            if reason:
                failure = runner.reject(argv, reason)
        passed.append(failure is None)
        if failure is None:
            if report.get("constants"):
                log_k.append(math.log(report["constants"]["K_tilde"]))
            if specs[job["spec"]]["kind"] == "carpet" and "pressure" in report:
                widths.append(width(report, specs[job["spec"]]))
    return {"times": times, "passed": passed, "raw": sum(raw), "ref": statistics.median(refs),
            "widths": widths, "log_k": log_k}


def is_bracket(job) -> bool:
    return job["cmd"] in ("dimension", "pressure")


def summary(passes, jobs):
    """Per operation the median over passes, summed over the job list:
    (wall, time to width, levels of passed operations)."""
    wall = ttw = 0.0
    levels = 0
    for i, job in enumerate(jobs):
        t = statistics.median(p["times"][i] for p in passes)
        wall += t
        if is_bracket(job):
            ttw += t
        if all(p["passed"][i] for p in passes):
            levels += job["depth"]
    return wall, ttw, levels


def run(plan_path, spec_dir, seconds, trace, result_path):
    import carpetdim.cli as cli

    signal.signal(signal.SIGALRM, _on_alarm)
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    specs, jobs = plan["specs"], plan["jobs"]
    work_dir = os.path.relpath(os.path.dirname(result_path))
    spec_dir = os.path.relpath(spec_dir)
    runner = Runner(cli)
    base_rss = _rss_mb()
    log = []

    for job in jobs:
        if "target" in job:
            job["depth"], job["probe"] = find_depth(runner, job, specs[job["spec"]], spec_dir, work_dir)
            log.append(f"depth {job['spec']} {job['cmd']} {job['depth']} target {job['target']}")
    jobs = [j for j in jobs if j["depth"] is not None]  # a failed search is counted

    for name in plan["exact"]:
        base = {"cmd": "dimension", "spec": name, "depth": EXACT_DEPTH}
        _, exact, f1 = runner.call(argv_of(base, spec_dir, work_dir) + ["--mode", "exact"])
        _, collapsed, f2 = runner.call(argv_of(base, spec_dir, work_dir))
        if f1 is None and f2 is None:
            reason = checks.check_exact_agreement(exact, collapsed)
            if reason:
                runner.reject(["dimension", name, "--mode", "exact"], reason)

    passes = []
    traced = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < (seconds / 2 if trace else seconds):
        passes.append(one_pass(runner, jobs, specs, spec_dir, work_dir))
    if trace:
        from tracing import Tracer

        while not traced or time.perf_counter() - start < seconds:
            tracer = Tracer()
            tracer.install()
            runner.tracer = tracer
            try:
                result = one_pass(runner, jobs, specs, spec_dir, work_dir)
            finally:
                tracer.uninstall()
                runner.tracer = None
            traced.append((result, tracer))

    peak = _rss_mb()
    first = passes[0]
    if trace:
        metrics = per_layer(passes, traced, first["log_k"], jobs, peak, base_rss)
    else:
        wall, ttw, levels = summary(passes, jobs)
        metrics = {
            "time_to_width_s": (ttw, "s"),
            "wall_s": (wall, "s"),
            "levels_per_s": (levels / wall, "1/s"),
            "dim_width": (max(first["widths"], default=0.0), "dim"),
            "peak_rss_mb": (peak, "MB"),
        }
    log += [f"fail {argv} :: {reason}" for argv, reason in sorted(runner.failures.items())]
    log.append(f"passes {len(passes)} traced {len(traced)}; unscaled wall_s median "
               f"{statistics.median(p['raw'] for p in passes)!r}, reference kernel median "
               f"{statistics.median(p['ref'] for p in passes)!r} s")
    result = {
        "correct": runner.incorrect == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "log": log,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def per_layer(passes, traced, log_k, jobs, peak, base_rss):
    def med_self(name):
        return statistics.median(t.self_times().get(name, 0.0) for _, t in traced)

    tracer = traced[0][1]
    memo = tracer.job_memo()
    visited = sum(v for v, _ in memo.values())
    entries = sum(e for _, e in memo.values())
    biggest = max((e for _, e in memo.values()), default=0)
    calls = tracer.calls()
    depths = {}
    for job in jobs:
        if "target" in job:
            depths.setdefault(job["shape"], []).append(job["depth"])
    untraced = summary(passes, jobs)[0]
    traced_wall = summary([r for r, _ in traced], jobs)[0]
    out = {
        "counting.partition.self_s": (med_self("counting.partition"), "s"),
        "counting.partition.calls": (calls.get("counting.partition", 0), "count"),
        "counting.visited_nodes": (visited, "count"),
        "counting.memo_entries": (entries, "count"),
        "counting.memo_hit_ratio": (1.0 - entries / visited if visited else 0.0, "ratio"),
        "counting.engines_per_job": (sum(tracer.engines.values()) / len(jobs), "count"),
        "counting.rss_per_entry_b_computed": (
            (peak - base_rss) * 1024 * 1024 / biggest if biggest else 0.0, "B"),
        "pressure.depth_needed.4x2": (statistics.median(depths.get("4x2", [0])), "count"),
        "pressure.depth_needed.7x3": (statistics.median(depths.get("7x3", [0])), "count"),
        "pressure.log_K_tilde": (statistics.median(log_k) if log_k else 0.0, "nat"),
    }
    for name in ("pressure.superadditive_constants", "pressure.hausdorff_dimension",
                 "pressure.pressure_interval", "pressure.convergence_rows",
                 "measures.gibbs_scan", "measures.additivity_scan", "measures.cesaro_defect",
                 "sft.validate_sft", "sft.carpet_to_factor", "specfile.load_system",
                 "specfile.dump_document", "cli"):
        out[name + ".self_s"] = (med_self(name), "s")
    out["sft.validate_sft.calls"] = (calls.get("sft.validate_sft", 0), "count")
    out["trace.overhead_s"] = (traced_wall - untraced, "s")
    out["trace.overhead_share"] = ((traced_wall - untraced) / untraced, "ratio")
    return out


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], sys.argv[3])
    else:
        run(sys.argv[2], sys.argv[3], float(sys.argv[4]), sys.argv[5] == "1", sys.argv[6])
