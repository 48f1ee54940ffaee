"""Record types: equality, hash, immutability, repr and defaults, and
the cost of importing the package that defines them."""

import subprocess
import sys

import pytest

from carpetdim.counting import LogReal, PartitionSum
from carpetdim.errors import SpecError
from carpetdim.measures import AdditivityScanReport, CylinderDistribution, GibbsEnvelope, UniquenessReport
from carpetdim.pressure import CompensationEstimate, DimensionEstimate, PressureEstimate, SuperadditiveConstants
from carpetdim.render import RasterImage
from carpetdim.sft import CarpetSpec, EventuallyPeriodicPoint, FactorSystem, Sft, StructureReport

GOLDEN = Sft(("a", "b"), ((1, 1), (1, 0)))
CONSTANTS = SuperadditiveConstants(M=2, log_K_tilde=0.5, rounding_bound=1e-15)
ESTIMATE = PressureEstimate(
    n=4, upper=0.7, lower=0.5, words=5, constants=CONSTANTS, log_Sn=2.8, rounding_bound=2e-15
)
POINT = EventuallyPeriodicPoint(("a",), ("b", "a"))

# one instance of each record type, with a field to assign
RECORDS = [
    (GOLDEN, "matrix"),
    (FactorSystem(GOLDEN, {"a": "x", "b": "y"}), "letter_map"),
    (CarpetSpec(3, 2, ((0, 0), (2, 0), (1, 1))), "digits"),
    (POINT, "cycle"),
    (StructureReport(irreducible=True, mixing=True, mixing_index=2, period=1), "period"),
    (PartitionSum(n=3, value=LogReal(1.5), word_count=3, visited_nodes=6, collapsed_nodes=1), "value"),
    (CONSTANTS, "log_K_tilde"),
    (ESTIMATE, "upper"),
    (DimensionEstimate(alpha=0.58, lower=0.6, upper=0.7, n=4, closed_form=None, pressure=ESTIMATE), "lower"),
    (CompensationEstimate(point=POINT, value=0.3, method="spectral"), "value"),
    (CylinderDistribution(depth=1, kind="cesaro", masses={("a",): 1.0}, level=3), "masses"),
    (
        GibbsEnvelope(
            C1_lower=0.5, C2_upper=2.0, min_ratio=0.8, max_ratio=1.2,
            pressure_interval_used=ESTIMATE, level=8, n_max=4,
        ),
        "min_ratio",
    ),
    (
        AdditivityScanReport(
            max_len=2, min_ratio=0.5, max_ratio=1.0, min_trend=(1.0, 0.5),
            verdict="consistent", witness=(("a",), ("b",)), threshold=0.01,
        ),
        "verdict",
    ),
    (
        UniquenessReport(
            singleton_clump=True, clump_letters=("x",), almost_additive_evidence="consistent",
            conclusion="unique",
        ),
        "conclusion",
    ),
    (RasterImage(width=8, height=1, rows=(b"\x80",), filled_cells=1), "rows"),
]


@pytest.mark.parametrize("record, field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_cached_tables_cannot_be_replaced():
    fs = FactorSystem(GOLDEN, {"a": "x", "b": "y"})
    assert fs.fibers == ((0,), (1,))
    with pytest.raises(AttributeError):
        fs.fibers = ((0, 1),)
    with pytest.raises(AttributeError):
        del fs.fibers
    with pytest.raises(AttributeError):
        fs._map_items = ()


def test_replace_runs_the_checks():
    with pytest.raises(SpecError, match="0 or 1"):
        GOLDEN._replace(matrix=((1, 2), (1, 0)))
    with pytest.raises(SpecError, match="nonempty"):
        POINT._replace(cycle=())
    fs = FactorSystem(GOLDEN, {"a": "x", "b": "y"})._replace(letter_map={"a": "x", "b": "x"})
    assert hash(fs) == hash(FactorSystem(GOLDEN, {"b": "x", "a": "x"}))


class TestInputEquality:
    def test_sft(self):
        same = Sft(("a", "b"), ((1, 1), (1, 0)))
        assert same == GOLDEN and hash(same) == hash(GOLDEN)
        assert Sft(("a", "b"), ((1, 1), (1, 1))) != GOLDEN

    def test_factor_system_ignores_letter_map_order(self):
        forward = FactorSystem(GOLDEN, {"a": "x", "b": "y"})
        backward = FactorSystem(GOLDEN, {"b": "y", "a": "x"})
        assert forward == backward and hash(forward) == hash(backward)
        assert not forward != backward
        assert forward != FactorSystem(GOLDEN, {"a": "x", "b": "x"})

    def test_carpet_spec(self):
        digits = ((0, 0), (2, 0), (1, 1))
        spec = CarpetSpec(3, 2, digits)
        assert spec == CarpetSpec(3, 2, digits, "full") and hash(spec) == hash(CarpetSpec(3, 2, digits))
        assert spec != CarpetSpec(3, 2, digits, ((0, 1), (1, 2), (2, 0)))
        assert spec != CarpetSpec(4, 2, digits)

    def test_eventually_periodic_point(self):
        same = EventuallyPeriodicPoint(("a",), ("b", "a"))
        assert same == POINT and hash(same) == hash(POINT)
        assert POINT.shift(1) == EventuallyPeriodicPoint((), ("b", "a"))
        assert POINT != EventuallyPeriodicPoint(("a",), ("a", "b"))


def test_reprs():
    assert repr(CONSTANTS) == "SuperadditiveConstants(M=2, log_K_tilde=0.5, rounding_bound=1e-15)"
    assert repr(FactorSystem(GOLDEN, {"a": "x", "b": "y"})) == (
        "FactorSystem(source=Sft(symbols=('a', 'b'), matrix=((1, 1), (1, 0))), "
        "letter_map={'a': 'x', 'b': 'y'})"
    )


def test_defaults():
    estimate = DimensionEstimate(alpha=0.58, lower=0.6, upper=0.7, n=4, closed_form=None, pressure=None)
    assert estimate.warnings == ()
    assert CompensationEstimate(point=POINT, value=0.3, method="spectral").depth is None
    assert CarpetSpec(3, 2, ((0, 0),)).transitions == "full"


def test_importing_the_cli_loads_no_dataclasses():
    """The records are NamedTuples, so the package loads neither
    ``dataclasses`` nor the ``inspect`` module it imports."""
    code = (
        "import sys; before = set(sys.modules); import carpetdim.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
