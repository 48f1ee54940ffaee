"""Output checks, one per operation kind.

Each check takes the parsed JSON report of one CLI call and returns
``None`` when the output is right, or a one-line reason when it is not.
The references are computed here from the spec documents, not by the
program: closed forms, lift counts and the Cesaro bound.
"""

from __future__ import annotations

import csv
import math

EPS = 2.0 ** -52
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def closed_form(doc: dict) -> float:
    """McMullen's dimension of a full-shift carpet:
    log_m sum over rows of (digits in the row)^(log m / log l)."""
    theta = math.log(doc["m"]) / math.log(doc["l"])
    rows = [0] * doc["m"]
    for _, b in doc["digits"]:
        rows[b] += 1
    return math.log(sum(t ** theta for t in rows if t)) / math.log(doc["m"])


def source_of(doc: dict):
    """(successor lists, letter of each source symbol) of a spec document."""
    if doc["kind"] == "carpet":
        k = len(doc["digits"])
        arcs = doc["transitions"]
        if arcs == "full":
            arcs = [[i, j] for i in range(k) for j in range(k)]
        succ = [[] for _ in range(k)]
        for i, j in arcs:
            succ[i].append(j)
        return succ, [str(b) for _, b in doc["digits"]]
    index = {s: i for i, s in enumerate(doc["symbols"])}
    succ = [[] for _ in doc["symbols"]]
    for a, b in doc["edges"]:
        succ[index[a]].append(index[b])
    return succ, [doc["letter_map"][s] for s in doc["symbols"]]


def preimage_count(doc: dict, word) -> int:
    """Number of source words whose letters spell ``word``."""
    succ, letter = source_of(doc)
    ways = {x: 1 for x in range(len(letter)) if letter[x] == word[0]}
    for a in word[1:]:
        nxt: dict = {}
        for x, c in ways.items():
            for y in succ[x]:
                if letter[y] == a:
                    nxt[y] = nxt.get(y, 0) + c
        ways = nxt
    return sum(ways.values())


def dimension_bracket(report: dict, doc: dict):
    """(lower, upper) in dimension units, from a dimension or carpet
    pressure report."""
    if report["command"] == "dimension":
        d = report["dimension"]
        return d["lower"], d["upper"]
    log_m = math.log(doc["m"])
    p = report["pressure"]
    return p["lower"] / log_m, p["upper"] / log_m


def check_closed_form(report: dict, doc: dict):
    lower, upper = dimension_bracket(report, doc)
    cf = closed_form(doc)
    if not lower <= cf <= upper:
        return f"closed form {cf!r} outside [{lower!r}, {upper!r}]"
    return None


def check_width(report: dict, doc: dict, target: float, probe):
    """Width at most ``target``, and the bracket meets the shallower
    probe's bracket: both provably contain the dimension."""
    lower, upper = dimension_bracket(report, doc)
    if not lower <= upper:
        return f"empty bracket [{lower!r}, {upper!r}]"
    if upper - lower > target:
        return f"width {upper - lower!r} above target {target!r}"
    if upper < probe[0] or probe[1] < lower:
        return f"bracket [{lower!r}, {upper!r}] misses probe bracket {list(probe)!r}"
    return None


def tracked_error(report: dict) -> float:
    """The rounding bound the program padded the pressure bracket with:
    upper = (log S_n + err) / n."""
    return report["n"] * report["pressure"]["upper"] - report["log_Sn"]


def check_exact_agreement(exact: dict, collapsed: dict):
    """Exact and collapsed mode add the same terms in another order, so
    their log S_n differ by at most the sum of their tracked errors
    (plus the rounding of recovering those errors from the report), and
    they share the splicing constant."""
    n, log_s = exact["n"], exact["log_Sn"]
    slack = 8 * EPS * n * (abs(log_s) + 1.0)
    tol = tracked_error(exact) + tracked_error(collapsed) + slack
    if abs(log_s - collapsed["log_Sn"]) > tol:
        return f"log S_n exact {log_s!r} vs collapsed {collapsed['log_Sn']!r}, tolerance {tol!r}"
    k_e, k_c = exact["constants"]["K_tilde"], collapsed["constants"]["K_tilde"]
    if not math.isclose(k_e, k_c, rel_tol=1e-12):
        return f"K_tilde exact {k_e!r} vs collapsed {k_c!r}"
    return None


def check_gibbs(report: dict):
    g = report["gibbs"]
    inside = g["C1"] <= g["min_ratio"] <= g["max_ratio"] <= g["C2"]
    if not (g["contained"] and inside):
        return (
            f"ratios [{g['min_ratio']!r}, {g['max_ratio']!r}] vs envelope "
            f"[{g['C1']!r}, {g['C2']!r}], contained={g['contained']!r}"
        )
    return None


def check_additivity(report: dict, doc: dict):
    """The stored witness pair attains the reported minimum ratio."""
    a = report["additivity"]
    w = a.get("witness")
    if w is None:
        return "no witness pair"
    u, v = w["left"], w["right"]
    ratio = preimage_count(doc, u + v) / (preimage_count(doc, u) * preimage_count(doc, v))
    if not math.isclose(ratio, a["min_ratio"], rel_tol=1e-12):
        return f"witness ratio {ratio!r} != min_ratio {a['min_ratio']!r}"
    return None


def check_cesaro(report: dict):
    c = report["cesaro"]
    if not 0.0 <= c["defect"] <= 2.0 / c["n_terms"]:
        return f"defect {c['defect']!r} outside [0, 2/{c['n_terms']}]"
    return None


def check_pressure_meets(report: dict, seen):
    """Brackets of one system all contain its pressure, so each must meet
    the intersection ``seen`` of the earlier ones.  Returns the reason
    (or None) and the new intersection."""
    p = report["pressure"]
    low, high = max(seen[0], p["lower"]), min(seen[1], p["upper"])
    if p["lower"] > p["upper"] or low > high:
        return f"bracket {[p['lower'], p['upper']]!r} misses earlier brackets {list(seen)!r}", seen
    return None, (low, high)


def check_pressure_csv(report: dict, csv_path: str):
    """The CSV holds rows 1..n and its last row is the reported bracket."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["n"]) for r in rows] != list(range(1, report["n"] + 1)):
        return f"CSV rows do not run 1..{report['n']}"
    last = rows[-1]
    got = (float(last["lower_bound"]), float(last["upper_bound"]))
    want = (report["pressure"]["lower"], report["pressure"]["upper"])
    if got != want:
        return f"CSV last row {got!r} != reported bracket {want!r}"
    return None


def check_counts(report: dict, doc: dict):
    want = preimage_count(doc, report["word"])
    if report["count"] != want:
        return f"count {report['count']!r} != {want}"
    return None


def check_compensation(report: dict, expected: float):
    if abs(report["spectral"] - expected) > 1e-10:
        return f"spectral {report['spectral']!r} != {expected!r}"
    gap = abs(report["spectral"] - report["series"]["value"])
    if report["gap"] != gap:
        return f"gap {report['gap']!r} != |spectral - series| {gap!r}"
    return None
