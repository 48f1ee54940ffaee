#!/usr/bin/env python3
"""Survey the bundled factor systems: structure, constants, verdicts.

For every bundled fixture this prints the mixing data, the splicing
constants, the pressure bracket at a chosen depth, the additivity and
uniqueness verdicts, the Gibbs-envelope ratios, and the two
compensation readings at the all-2s point.  It is the quick "is the
library behaving" tour; everything it prints is recomputed, nothing is
cached between runs.

Example:
    python3 scripts/fixture_survey.py --depth 18 --theta 0.6309297535714574
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from carpetdim.counting import CollapsedEngine, dn_count
from carpetdim.fixtures import FIXTURE_BUILDERS
from carpetdim.measures import additivity_scan, cesaro_defect, gibbs_scan, uniqueness_report
from carpetdim.pressure import compensation_at_periodic, pressure_interval
from carpetdim.sft import EventuallyPeriodicPoint, validate_sft

DEFAULT_THETA = math.log(2.0) / math.log(3.0)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--theta", type=float, default=DEFAULT_THETA)
    parser.add_argument("--depth", type=int, default=16, help="pressure depth")
    parser.add_argument("--gibbs-level", type=int, default=16)
    parser.add_argument("--scan-len", type=int, default=12)
    return parser.parse_args(argv)


def survey(name, fs, args):
    print(f"== {name} ==")
    report = validate_sft(fs.source)
    print(
        f"  source: {len(fs.source.symbols)} symbols, "
        f"{len(fs.image_alphabet)} image letters, "
        f"mixing index M={report.mixing_index}"
    )
    # one engine for three scans: the Gibbs scan holds the levels its
    # seeded split reaches, 10 to 13 of them at the defaults, and reads
    # S_L; with --depth equal to --gibbs-level the pressure bracket reads
    # that S_n and S_{M-1} off the held levels, sweeping nothing, and the
    # Cesaro defect's seeded walk visits 6 to 54 more nodes on three of
    # the four fixtures
    eng = CollapsedEngine(fs, args.theta)
    env = gibbs_scan(eng, level=args.gibbs_level, n_max=args.gibbs_level - report.mixing_index - 1)
    est = pressure_interval(eng, args.depth)
    print(f"  constants: K~={math.exp(est.constants.log_K_tilde):.6g}")
    print(
        f"  pressure at n={args.depth}: [{est.lower:.9f}, {est.upper:.9f}] "
        f"width {est.upper - est.lower:.3e}"
    )
    print(
        f"  gibbs ratios in [{env.min_ratio:.6g}, {env.max_ratio:.6g}], "
        f"envelope [{env.C1_lower:.6g}, {env.C2_upper:.6g}], "
        f"contained={env.contained}"
    )
    scan = additivity_scan(fs, max_len=args.scan_len)
    unique = uniqueness_report(fs, scan)
    print(f"  additivity: {scan.verdict} (min ratio {scan.min_ratio:.6g})")
    print(f"  uniqueness: {unique.conclusion}")
    defect = cesaro_defect(eng, level=args.depth, n_terms=args.depth - 8, probe_depth=2)
    print(f"  cesaro defect at {args.depth - 8} terms: {defect:.6e}")
    point = EventuallyPeriodicPoint((), ("2",))
    d = dn_count(fs, point, 12)
    if d:  # a counted prefix extends to an infinite lift, so the point is in the image
        spectral, series = compensation_at_periodic(fs, point, depth=12)
        print(
            f"  compensation at 2^inf: spectral {spectral.value:.9f}, "
            f"series {series.value:.9f} at depth {series.depth}, "
            f"lift prefixes {d}"
        )
    print()


def main(argv=None):
    args = parse_args(argv)
    for name, build in FIXTURE_BUILDERS.items():
        survey(name, build(), args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
