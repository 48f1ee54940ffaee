"""Command-line front end.

Parses a system document, dispatches one computation, and prints a
deterministic JSON report to standard output (sorted keys; the
timestamp is the only nondeterministic field and --no-timestamp drops
it).  Exit codes: 0 success, 1 malformed input or usage, 2 violated
mathematical precondition (including a non-mixing source), 3 exhausted
resource budget or memory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from datetime import datetime, timezone

from .counting import ENGINES, make_engine, preimage_count
from .errors import (
    NonMixingError,
    PreconditionError,
    ResourceError,
    SpecError,
)
from .fixtures import write_fixture_files
from .measures import (
    DEFAULT_REFUTATION_THRESHOLD,
    additivity_scan,
    cesaro_defect,
    gibbs_scan,
    uniqueness_report,
)
from .pressure import (
    compensation_at_periodic,
    convergence_rows,
    hausdorff_dimension,
    pressure_interval,
)
from .render import render_carpet, write_pbm
from .sft import (
    CarpetSpec,
    EventuallyPeriodicPoint,
    carpet_to_factor,
    singleton_clumps,
    validate_sft,
)
from .specfile import SCHEMA_VERSION, dump_document, load_system

__all__ = ["main", "parse_args"]

EXIT_OK = 0
EXIT_SPEC = 1
EXIT_PRECONDITION = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits on its own; route usage problems through SpecError
    # so every malformed invocation lands on the same exit code
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SpecError(message)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _letters(text: str) -> tuple[str, ...]:
    if "," in text:
        parts = tuple(p.strip() for p in text.split(",") if p.strip())
    else:
        # bare token: one single-character letter per character
        parts = tuple(text.strip())
    if not parts:
        raise argparse.ArgumentTypeError(
            "expected comma-separated letters, or a bare string of "
            "single-character letters"
        )
    return parts


def _system(config):
    """Load the input document as (factor system, carpet or None)."""
    obj = load_system(config.spec_path)
    if isinstance(obj, CarpetSpec):
        return carpet_to_factor(obj)[0], obj
    return obj, None


def _theta(config, carpet) -> float:
    """The count exponent: log m / log l for a carpet, else --theta."""
    if carpet is not None:
        if config.theta is not None:
            raise SpecError("--theta conflicts with a carpet spec; theta is log m / log l")
        return carpet.theta()
    if config.theta is None:
        raise SpecError("--theta is required for factor_system specs")
    return config.theta


def _engine(config):
    """The engine of the command's --mode under --node-budget, for the
    input document at its theta (``_theta``).  gibbs and cesaro have no
    --mode: they read held levels, which only the collapsed sweep keeps."""
    fs, carpet = _system(config)
    mode = getattr(config, "mode", "collapsed")
    return make_engine(fs, _theta(config, carpet), mode, config.node_budget)


class _ExactInts:
    """Lifts Python's cap on the digits of an int turned into text (3.10.7
    on) while output is written: counts are exact; input keeps the cap."""

    def __enter__(self):
        self.cap = getattr(sys, "get_int_max_str_digits", int)()  # int() == 0: no cap
        if self.cap:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        if self.cap:
            sys.set_int_max_str_digits(self.cap)


def _emit(config, payload: dict) -> int:
    doc = {"schema": SCHEMA_VERSION, "command": config.command}
    doc.update(payload)
    if config.timestamp:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with _ExactInts():
        sys.stdout.write(dump_document(doc))
    return EXIT_OK


def _constants_doc(constants) -> dict:
    return {
        "M": constants.M,
        "K_tilde": math.exp(constants.log_K_tilde),
    }


def _cmd_analyze(config) -> int:
    fs, carpet = _system(config)
    report = validate_sft(fs.source)
    payload = {
        "system": {
            "kind": "carpet" if carpet else "factor_system",
            "symbols": list(fs.source.symbols),
            "image_alphabet": list(fs.image_alphabet),
            "fibers": {
                letter: list(fs.fiber_symbols(letter)) for letter in fs.image_alphabet
            },
        },
        "structure": {
            "irreducible": report.irreducible,
            "mixing": report.mixing,
            "mixing_index": report.mixing_index,
            "period": report.period,
        },
        "singleton_clumps": singleton_clumps(fs),
    }
    if carpet:
        payload["carpet"] = {
            "l": carpet.l,
            "m": carpet.m,
            "alpha": carpet.alpha(),
            "theta": carpet.theta(),
            "digits": [list(d) for d in carpet.digits],
            "full_shift": carpet.is_full_shift(),
        }
    return _emit(config, payload)


def _cmd_dimension(config) -> int:
    obj = load_system(config.spec_path)
    if not isinstance(obj, CarpetSpec):
        raise SpecError("dimension requires a carpet spec (factor systems have no l, m)")
    estimate = hausdorff_dimension(obj, config.depth, config.mode, config.node_budget)
    pe = estimate.pressure
    dimension = {"lower": estimate.lower, "upper": estimate.upper}
    if estimate.closed_form is not None:
        dimension["closed_form"] = estimate.closed_form
    payload = {
        "alpha": estimate.alpha,
        "theta": obj.theta(),
        "n": estimate.n,
        "log_Sn": pe.log_Sn if pe else None,
        "pressure": {"lower": pe.lower, "upper": pe.upper} if pe else None,
        "dimension": dimension,
        "constants": _constants_doc(pe.constants) if pe else None,
        "warnings": list(estimate.warnings),
    }
    return _emit(config, payload)


def _cmd_pressure(config) -> int:
    engine = _engine(config)
    if config.csv_path:
        rows = convergence_rows(engine, config.depth)
        _write_series_csv(config.csv_path, rows)
        estimate = rows[-1]
    else:
        estimate = pressure_interval(engine, config.depth)
    payload = {
        "theta": engine.theta,
        "n": estimate.n,
        "log_Sn": estimate.log_Sn,
        "pressure": {"lower": estimate.lower, "upper": estimate.upper},
        "constants": _constants_doc(estimate.constants),
        "warnings": [],
    }
    if config.csv_path:
        payload["csv"] = config.csv_path
    return _emit(config, payload)


def _write_series_csv(path, rows):
    try:
        with _ExactInts(), open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "log_Sn", "words", "upper_bound", "lower_bound"])
            for est in rows:
                writer.writerow(
                    [est.n, "%.17g" % est.log_Sn, est.words, "%.17g" % est.upper, "%.17g" % est.lower]
                )
    except OSError as exc:
        raise SpecError(f"cannot write CSV to {path}: {exc}") from exc


def _cmd_counts(config) -> int:
    fs, _ = _system(config)
    count = preimage_count(fs, config.word)
    return _emit(config, {"word": list(config.word), "count": count})


def _cmd_gibbs(config) -> int:
    envelope = gibbs_scan(_engine(config), config.level, config.n_max)
    pe = envelope.pressure_interval_used
    payload = {
        "gibbs": {
            "C1": envelope.C1_lower,
            "C2": envelope.C2_upper,
            "min_ratio": envelope.min_ratio,
            "max_ratio": envelope.max_ratio,
            "contained": envelope.contained,
            "level": envelope.level,
            "n_max": envelope.n_max,
            "pressure": {"lower": pe.lower, "upper": pe.upper},
        }
    }
    return _emit(config, payload)


def _cmd_additivity(config) -> int:
    fs, _ = _system(config)
    scan = additivity_scan(
        fs, config.max_len, threshold=config.threshold, node_budget=config.node_budget
    )
    additivity = {
        "L": scan.max_len,
        "min_ratio": scan.min_ratio,
        "max_ratio": scan.max_ratio,
        "min_trend": list(scan.min_trend),
        "verdict": scan.verdict,
        "threshold": scan.threshold,
    }
    if scan.witness is not None:
        additivity["witness"] = {
            "left": list(scan.witness[0]),
            "right": list(scan.witness[1]),
        }
    payload = {"additivity": additivity}
    try:
        unique = uniqueness_report(fs, scan)
        payload["uniqueness"] = {
            "singleton_clump": unique.singleton_clump,
            "clump_letters": list(unique.clump_letters),
            "almost_additive_evidence": unique.almost_additive_evidence,
            "verdict": unique.conclusion,
        }
    except NonMixingError as exc:
        payload["uniqueness"] = None
        payload["warnings"] = [str(exc)]
    return _emit(config, payload)


def _cmd_cesaro(config) -> int:
    defect = cesaro_defect(_engine(config), config.level, config.n_terms, config.probe_depth)
    payload = {
        "cesaro": {
            "level": config.level,
            "n_terms": config.n_terms,
            "probe_depth": config.probe_depth,
            "defect": defect,
        }
    }
    return _emit(config, payload)


def _cmd_compensation(config) -> int:
    fs, _ = _system(config)
    point = EventuallyPeriodicPoint(tuple(config.preperiod), tuple(config.cycle))
    spectral, series = compensation_at_periodic(fs, point, depth=config.depth)
    payload = {
        "point": {"preperiod": list(point.preperiod), "cycle": list(point.cycle)},
        "spectral": spectral.value,
        "series": {"value": series.value, "depth": series.depth},
        "gap": abs(spectral.value - series.value),
    }
    return _emit(config, payload)


def _cmd_render(config) -> int:
    obj = load_system(config.spec_path)
    if not isinstance(obj, CarpetSpec):
        raise SpecError("render requires a carpet spec")
    image = render_carpet(obj, config.level, resolution=config.resolution)
    try:
        write_pbm(image, config.output)
    except OSError as exc:
        raise SpecError(f"cannot write image to {config.output}: {exc}") from exc
    payload = {
        "render": {
            "width": image.width,
            "height": image.height,
            "filled_cells": image.filled_cells,
            "level": config.level,
            "output": config.output,
        }
    }
    return _emit(config, payload)


def _cmd_fixtures(config) -> int:
    try:
        written = write_fixture_files(config.out_dir)
    except OSError as exc:
        raise SpecError(f"cannot write fixtures to {config.out_dir}: {exc}") from exc
    return _emit(config, {"written": written})


@functools.cache
def _parser() -> _Parser:
    # built once per process: the ten subparsers cost more than a
    # shallow full-shift computation
    parser = _Parser(
        prog="carpetdim",
        description="Lift counting, pressure brackets, dimension bounds, and "
        "measure diagnostics for coded self-affine carpets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, spec=True, sweeps=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if spec:
            p.add_argument("--spec", required=True, dest="spec_path", help="system document (JSON)")
        if sweeps:
            p.add_argument("--node-budget", type=_positive, dest="node_budget")
        p.add_argument(
            "--no-timestamp",
            dest="timestamp",
            action="store_false",
            help="omit the generated_at field for byte-identical reruns",
        )
        return p

    add("analyze", _cmd_analyze, "structural facts: connectivity, mixing index, fibers, clumps")

    p = add("dimension", _cmd_dimension, "dimension interval for a carpet spec", sweeps=True)
    p.add_argument("--depth", type=_positive, required=True)
    p.add_argument("--mode", choices=tuple(ENGINES), default="collapsed")

    p = add("pressure", _cmd_pressure, "pressure bracket at one depth, optional CSV series", sweeps=True)
    p.add_argument("--depth", type=_positive, required=True)
    p.add_argument("--theta", type=float, help="count exponent in (0, 1]; forbidden for carpets")
    p.add_argument("--mode", choices=tuple(ENGINES), default="collapsed")
    p.add_argument(
        "--csv",
        dest="csv_path",
        help="also write the depth 1..n series as CSV; the series steps every level, so "
        "the reported bracket, its last row, can be wider than without --csv",
    )

    p = add("counts", _cmd_counts, "exact lift count of one image word")
    p.add_argument("--word", type=_letters, required=True, help="image word: comma-separated letters, or a bare run of single-character letters")

    p = add("gibbs", _cmd_gibbs, "scan cylinder-mass ratios against the theoretical envelope", sweeps=True)
    p.add_argument("--level", type=_positive, required=True)
    p.add_argument("--n-max", type=_positive, required=True, dest="n_max")
    p.add_argument("--theta", type=float)

    p = add("additivity", _cmd_additivity, "concatenation-ratio scan and uniqueness verdict", sweeps=True)
    p.add_argument("--max-len", type=_positive, required=True, dest="max_len")
    p.add_argument("--threshold", type=float, default=DEFAULT_REFUTATION_THRESHOLD)

    p = add("cesaro", _cmd_cesaro, "shift-invariance defect of the averaged cylinder measure", sweeps=True)
    p.add_argument("--level", type=_positive, required=True)
    p.add_argument("--n-terms", type=_positive, required=True, dest="n_terms")
    p.add_argument("--probe-depth", type=_positive, default=2, dest="probe_depth")
    p.add_argument("--theta", type=float)

    p = add("compensation", _cmd_compensation, "growth rate of lift counts at an eventually periodic point")
    p.add_argument("--cycle", type=_letters, required=True)
    p.add_argument("--preperiod", type=_letters, default=())
    p.add_argument("--depth", type=_positive, default=12)

    p = add("render", _cmd_render, "write the level-k approximation as a portable bitmap")
    p.add_argument("--level", type=_positive, required=True)
    p.add_argument("--resolution", type=_positive, default=0)
    p.add_argument("--output", required=True, help="output .pbm path")

    p = add("fixtures", _cmd_fixtures, "write the bundled example systems as spec files", spec=False)
    p.add_argument("--out-dir", default="fixtures", dest="out_dir")

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse one invocation; ``handler`` is its command's function."""
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
        return config.handler(config)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PreconditionError as exc:
        # NonMixingError and NotFullShiftError are subclasses
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError:
        print("error: out of memory; lower the depth or the node budget", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
