"""Command line: argument handling, report shapes, exit codes, determinism."""

import contextlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from carpetdim import cli, counting, pressure
from carpetdim.cli import (
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_RESOURCE,
    EXIT_SPEC,
    main,
    parse_args,
)
from carpetdim.fixtures import write_fixture_files
from carpetdim.specfile import load_system, write_document

THETA_ARG = "0.6309297535714574"


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    write_fixture_files(out)
    return out


@pytest.fixture
def restore_digit_cap():
    """Python's cap on the digits of an int turned into text, put back
    after the test; skips where this Python has no cap."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no cap on the digits of an int")
    cap = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(cap)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestParsing:
    def test_word_forms(self, fixture_dir):
        spec = str(fixture_dir / "parity_oscillation.json")
        bare = parse_args(["counts", "--spec", spec, "--word", "1221"])
        commas = parse_args(["counts", "--spec", spec, "--word", "1,2,2,1"])
        assert bare.word == commas.word == ("1", "2", "2", "1")

    @pytest.mark.parametrize(
        "argv",
        [
            ("counts", "--word", "1,,2"),
            ("counts", "--word", "1,2,"),
            ("counts", "--word", "1, ,2"),
            ("compensation", "--cycle", ",2"),
            ("compensation", "--cycle", "2", "--preperiod", "1,,2"),
            ("counts", "--word", "1 2"),
        ],
        ids=["word-inner", "word-trailing", "word-blank", "cycle-leading", "preperiod-inner", "word-bare-blank"],
    )
    def test_empty_letter_parts_are_usage_errors(self, capsys, fixture_dir, argv):
        """A comma-separated list with an empty part names no letter there,
        and a bare token's blank is no letter either, so each is rejected
        rather than read without the part or with a blank letter."""
        spec = str(fixture_dir / "parity_oscillation.json")
        code, out, err = run_cli(capsys, argv[0], "--spec", spec, *argv[1:])
        assert code == EXIT_SPEC
        assert out == ""
        assert "expected comma-separated letters" in err

    def test_defaults(self, fixture_dir):
        spec = str(fixture_dir / "column_carpet_21.json")
        config = parse_args(["dimension", "--spec", spec, "--depth", "10"])
        assert config.mode == "collapsed"
        assert config.timestamp is True
        assert config.node_budget is None
        render = parse_args(["render", "--spec", spec, "--level", "2", "--output", "x.pbm"])
        assert render.resolution == 0

    def test_usage_errors_exit_one(self, capsys):
        assert main(["counts"]) == EXIT_SPEC  # missing required flags
        assert main(["no-such-command"]) == EXIT_SPEC
        assert main(["dimension", "--spec", "x.json", "--depth", "-3"]) == EXIT_SPEC
        capsys.readouterr()

    def test_node_budget_only_on_sweeping_commands(self, capsys, fixture_dir):
        """A command that never sweeps rejects the budget as unknown
        rather than ignoring it."""
        spec = str(fixture_dir / "parity_oscillation.json")
        code, out, err = run_cli(capsys, "counts", "--spec", spec, "--word", "1221", "--node-budget", "1")
        assert code == EXIT_SPEC
        assert out == ""
        assert err.startswith("usage:")
        assert "--node-budget" in err
        sweeping = {
            "dimension": ["--depth", "2"],
            "pressure": ["--depth", "2"],
            "gibbs": ["--level", "4", "--n-max", "1"],
            "additivity": ["--max-len", "2"],
            "cesaro": ["--level", "4", "--n-terms", "1"],
        }
        for command, args in sweeping.items():
            config = parse_args([command, "--spec", spec, *args, "--node-budget", "7"])
            assert config.node_budget == 7


class TestReports:
    def test_analyze_factor_system(self, capsys, fixture_dir):
        doc = run_json(
            capsys,
            "analyze",
            "--spec", str(fixture_dir / "parity_oscillation.json"),
            "--no-timestamp",
        )
        assert doc["schema"] == 1
        assert doc["command"] == "analyze"
        assert doc["structure"]["mixing"] is True
        assert doc["structure"]["mixing_index"] == 5
        assert doc["singleton_clumps"] == ["1"]
        assert doc["system"]["fibers"]["2"] == ["2", "3", "4", "5"]
        assert "generated_at" not in doc

    def test_analyze_carpet(self, capsys, fixture_dir):
        doc = run_json(
            capsys,
            "analyze",
            "--spec", str(fixture_dir / "column_carpet_21.json"),
            "--no-timestamp",
        )
        assert doc["system"]["kind"] == "carpet"
        assert doc["carpet"]["l"] == 3
        assert doc["carpet"]["full_shift"] is True

    def test_dimension_report(self, capsys, fixture_dir):
        doc = run_json(
            capsys,
            "dimension",
            "--spec", str(fixture_dir / "column_carpet_21.json"),
            "--depth", "16",
            "--no-timestamp",
        )
        dim = doc["dimension"]
        assert dim["lower"] <= dim["closed_form"] <= dim["upper"]
        assert doc["constants"]["M"] == 1
        assert doc["warnings"] == []

    def test_deep_dimension_report(self, capsys, fixture_dir):
        doc = run_json(
            capsys,
            "dimension",
            "--spec", str(fixture_dir / "column_carpet_21.json"),
            "--depth", "2000",
            "--no-timestamp",
        )
        dim = doc["dimension"]
        assert dim["lower"] <= dim["closed_form"] <= dim["upper"]

    def test_closed_form_of_a_carpet_with_many_rows(self, capsys, tmp_path):
        """The closed form sums over the rows that hold a digit, so a
        carpet with m = 10^15 rows reports log 2 / log m rather than
        running out of memory on a list of m row counts."""
        spec = tmp_path / "wide_rows.json"
        spec.write_text(json.dumps({
            "schema": 1, "kind": "carpet", "l": 10**15 + 1, "m": 10**15,
            "digits": [[0, 0], [1, 5]], "transitions": "full",
        }))
        doc = run_json(capsys, "dimension", "--spec", str(spec), "--depth", "3", "--no-timestamp")
        assert doc["dimension"]["closed_form"] == pytest.approx(math.log(2) / math.log(10**15), rel=1e-15)

    def test_counts_report(self, capsys, fixture_dir):
        doc = run_json(
            capsys,
            "counts",
            "--spec", str(fixture_dir / "parity_oscillation.json"),
            "--word", "12221",
            "--no-timestamp",
        )
        assert doc["count"] == 1  # odd run of 2s pins the lift
        assert doc["word"] == ["1", "2", "2", "2", "1"]

    def test_counts_past_the_digit_cap(self, capsys, fixture_dir, restore_digit_cap):
        """The report carries the exact count 3^12000, 5,726 digits, past
        the default cap of 4,300, which it lifts only while it is written."""
        sys.set_int_max_str_digits(4300)
        code, out, err = run_cli(
            capsys,
            "counts",
            "--spec", str(fixture_dir / "full_torus_32.json"),
            "--word", "1" * 12000,
            "--no-timestamp",
        )
        assert code == EXIT_OK, err
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        assert json.loads(out)["count"] == 3**12000

    def test_csv_words_past_the_digit_cap(self, capsys, tmp_path, fixture_dir, restore_digit_cap):
        """The CSV's words column is exact past the cap too: 2^2200 has
        663 digits, over the least cap Python allows."""
        sys.set_int_max_str_digits(640)
        csv_path = tmp_path / "series.csv"
        run_json(
            capsys,
            "pressure",
            "--spec", str(fixture_dir / "full_torus_32.json"),
            "--depth", "2200",
            "--csv", str(csv_path),
            "--no-timestamp",
        )
        assert sys.get_int_max_str_digits() == 640
        sys.set_int_max_str_digits(0)
        assert int(csv_path.read_text().splitlines()[-1].split(",")[2]) == 2**2200

    def test_pressure_with_csv(self, capsys, tmp_path, fixture_dir):
        csv_path = tmp_path / "series.csv"
        doc = run_json(
            capsys,
            "pressure",
            "--spec", str(fixture_dir / "fibonacci_fiber.json"),
            "--theta", THETA_ARG,
            "--depth", "6",
            "--csv", str(csv_path),
            "--no-timestamp",
        )
        assert doc["pressure"]["lower"] < doc["pressure"]["upper"]
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "n,log_Sn,words,upper_bound,lower_bound"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "1" and first[2] == "2"

    def test_exact_mode_csv_ends_at_the_reported_bracket(self, capsys, tmp_path, fixture_dir):
        """The series is taken in the report's mode, so its last row is
        the bracket reported at the same depth."""
        csv_path = tmp_path / "series.csv"
        doc = run_json(
            capsys,
            "pressure",
            "--spec", str(fixture_dir / "parity_oscillation.json"),
            "--theta", THETA_ARG,
            "--depth", "12",
            "--mode", "exact",
            "--csv", str(csv_path),
            "--no-timestamp",
        )
        n, log_sn, _, upper, lower = csv_path.read_text().strip().splitlines()[-1].split(",")
        assert int(n) == doc["n"] == 12
        assert float(log_sn) == doc["log_Sn"]
        assert [float(lower), float(upper)] == [doc["pressure"]["lower"], doc["pressure"]["upper"]]

    def test_exact_mode_csv_walks_at_most_twice(self, capsys, tmp_path, fixture_dir, monkeypatch):
        """One exact engine serves the whole command: the series walks
        once to the depth, the constants and the bracket read that walk,
        and no collapsed sweep is built."""
        walks, built = [], []
        walk, init = counting._prefix_words, counting.CollapsedEngine.__init__
        monkeypatch.setattr(counting, "_prefix_words", lambda fs, n: walks.append(n) or walk(fs, n))
        monkeypatch.setattr(
            counting.CollapsedEngine, "__init__", lambda *a, **k: built.append(1) or init(*a, **k)
        )
        run_json(
            capsys,
            "pressure",
            "--spec", str(fixture_dir / "parity_oscillation.json"),
            "--theta", THETA_ARG,
            "--depth", "12",
            "--mode", "exact",
            "--csv", str(tmp_path / "series.csv"),
            "--no-timestamp",
        )
        assert walks == [12]
        assert built == []

    def test_csv_checks_structure_once(self, capsys, tmp_path, fixture_dir, monkeypatch):
        """--csv reports the series' last record, so the splicing constant
        and the structure check behind it are read once per command."""
        checks, constants = [], []
        check, splice = pressure.validate_sft, pressure.superadditive_constants
        monkeypatch.setattr(pressure, "validate_sft", lambda sft: checks.append(1) or check(sft))
        monkeypatch.setattr(
            pressure, "superadditive_constants", lambda eng: constants.append(1) or splice(eng)
        )
        run_json(
            capsys,
            "pressure",
            "--spec", str(fixture_dir / "parity_oscillation.json"),
            "--theta", THETA_ARG,
            "--depth", "14",
            "--csv", str(tmp_path / "series.csv"),
            "--no-timestamp",
        )
        assert checks == constants == [1]

    def test_csv_bracket_holds_the_pressure(self, capsys, tmp_path, fixture_dir):
        """The series steps every level, so its bracket can be wider than
        the squaring jump's; on the full 3x2 torus both hold log 4 and
        meet, and the --csv report is the series' last row."""
        argv = ["pressure", "--spec", str(fixture_dir / "full_torus_32.json"), "--depth", "2000",
                "--no-timestamp"]
        jumped = run_json(capsys, *argv)
        csv_path = tmp_path / "series.csv"
        stepped = run_json(capsys, *argv, "--csv", str(csv_path))
        brackets = [(doc["pressure"]["lower"], doc["pressure"]["upper"]) for doc in (jumped, stepped)]
        for lower, upper in brackets:
            assert lower <= math.log(4) <= upper
        assert max(lo for lo, _ in brackets) <= min(up for _, up in brackets)
        n, log_sn, _, upper, lower = csv_path.read_text().strip().splitlines()[-1].split(",")
        assert int(n) == stepped["n"] == 2000
        assert float(log_sn) == stepped["log_Sn"]
        assert (float(lower), float(upper)) == brackets[1]

    def test_gibbs_report(self, capsys, fixture_dir):
        doc = run_json(
            capsys,
            "gibbs",
            "--spec", str(fixture_dir / "bipartite_fiber.json"),
            "--theta", THETA_ARG,
            "--level", "13",
            "--n-max", "5",
            "--no-timestamp",
        )
        gibbs = doc["gibbs"]
        assert gibbs["contained"] is True
        assert gibbs["C1"] <= gibbs["min_ratio"] <= gibbs["max_ratio"] <= gibbs["C2"]

    def test_additivity_report_with_uniqueness(self, capsys, fixture_dir):
        doc = run_json(
            capsys,
            "additivity",
            "--spec", str(fixture_dir / "parity_oscillation.json"),
            "--max-len", "12",
            "--no-timestamp",
        )
        assert doc["additivity"]["verdict"] == "refuted-up-to-12"
        assert doc["additivity"]["witness"]["left"]
        assert doc["uniqueness"]["verdict"] == "unique-full-dimension-measure"
        assert doc["uniqueness"]["clump_letters"] == ["1"]

    def test_cesaro_report(self, capsys, fixture_dir):
        doc = run_json(
            capsys,
            "cesaro",
            "--spec", str(fixture_dir / "fibonacci_fiber.json"),
            "--theta", THETA_ARG,
            "--level", "10",
            "--n-terms", "4",
            "--no-timestamp",
        )
        assert 0.0 < doc["cesaro"]["defect"] < 0.5
        assert doc["cesaro"]["probe_depth"] == 2

    def test_compensation_report(self, capsys, fixture_dir):
        for depth_args, depth in ((["--depth", "10"], 10), ([], 12)):
            doc = run_json(
                capsys,
                "compensation",
                "--spec", str(fixture_dir / "fibonacci_fiber.json"),
                "--cycle", "2",
                *depth_args,
                "--no-timestamp",
            )
            assert doc["spectral"] == pytest.approx(0.4812118250596, abs=1e-10)
            assert doc["series"]["depth"] == depth
        assert doc["gap"] >= 0.0

    def test_compensation_of_a_slowly_settling_block(self, capsys, tmp_path):
        """Letter 2's fiber a, b, c, d carries a block whose power
        iterates settle slowly; its Perron root is 1.5589798779817508
        (bisection of the characteristic polynomial x^4 - x^3 - 2x + 1)."""
        fiber = [["a", "a"], ["a", "d"], ["b", "a"], ["b", "c"], ["c", "d"], ["d", "b"]]
        hub = [["x", s] for s in "abcdx"] + [[s, "x"] for s in "abcd"]
        spec = tmp_path / "five.json"
        spec.write_text(json.dumps({
            "schema": 1, "kind": "factor_system", "symbols": ["a", "b", "c", "d", "x"],
            "edges": fiber + hub, "letter_map": {"a": "2", "b": "2", "c": "2", "d": "2", "x": "1"},
        }))
        doc = run_json(capsys, "compensation", "--spec", str(spec), "--cycle", "2", "--no-timestamp")
        assert doc["spectral"] == pytest.approx(0.44403168298897633, abs=1e-12)

    @pytest.mark.parametrize(
        "fixture, letters, value",
        [("fibonacci_fiber", 1_500, 0.48121182505960347), ("bipartite_fiber", 2_100, 0.34657359027997264)],
    )
    def test_compensation_of_a_cycle_whose_root_is_past_the_float_range(
        self, capsys, fixture_dir, fixture, letters, value
    ):
        """The product around these cycles has a Perron root past 2^1024;
        spectral is one log of the exact root, split by bit lengths, so
        it is log phi and log 2 / 2 as at short cycles."""
        doc = run_json(
            capsys,
            "compensation",
            "--spec", str(fixture_dir / f"{fixture}.json"),
            "--cycle", "2" * letters,
            "--no-timestamp",
        )
        assert doc["spectral"] == pytest.approx(value, abs=1e-12)

    def test_render_writes_pbm(self, capsys, tmp_path, fixture_dir):
        out = tmp_path / "carpet.pbm"
        doc = run_json(
            capsys,
            "render",
            "--spec", str(fixture_dir / "column_carpet_21.json"),
            "--level", "3",
            "--output", str(out),
            "--no-timestamp",
        )
        assert doc["render"]["width"] == 27
        assert doc["render"]["height"] == 8
        assert doc["render"]["filled_cells"] == 27  # 3^3 allowed words
        assert out.read_bytes().startswith(b"P4\n27 8\n")

    def test_fixtures_command_round_trips(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for out_args, out_dir in ((["--out-dir", "fx"], "fx"), ([], "fixtures")):
            doc = run_json(capsys, "fixtures", *out_args, "--no-timestamp")
            assert len(doc["written"]) == 6
            assert sorted(map(str, (tmp_path / out_dir).iterdir())) == sorted(
                str(tmp_path / path) for path in doc["written"]
            )
            for path in doc["written"]:
                load_system(path)  # every written file parses cleanly

    def test_timestamp_present_by_default(self, capsys, fixture_dir):
        code, out, _ = run_cli(
            capsys,
            "counts",
            "--spec", str(fixture_dir / "parity_oscillation.json"),
            "--word", "2",
        )
        assert code == EXIT_OK
        assert "generated_at" in json.loads(out)


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, fixture_dir):
        argv = [
            "additivity",
            "--spec", str(fixture_dir / "fibonacci_fiber.json"),
            "--max-len", "8",
            "--no-timestamp",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_report_keys_are_sorted(self, capsys, fixture_dir):
        _, out, _ = run_cli(
            capsys,
            "analyze",
            "--spec", str(fixture_dir / "parity_oscillation.json"),
            "--no-timestamp",
        )
        doc = json.loads(out)
        assert list(doc) == sorted(doc)


class TestExitCodes:
    def test_missing_spec_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--spec", "absent.json")
        assert code == EXIT_SPEC
        assert "error:" in err

    def test_dimension_rejects_factor_system(self, capsys, fixture_dir):
        code, _, _ = run_cli(
            capsys,
            "dimension",
            "--spec", str(fixture_dir / "parity_oscillation.json"),
            "--depth", "5",
        )
        assert code == EXIT_SPEC

    def test_theta_required_for_factor_system(self, capsys, fixture_dir):
        code, _, err = run_cli(
            capsys,
            "pressure",
            "--spec", str(fixture_dir / "parity_oscillation.json"),
            "--depth", "5",
        )
        assert code == EXIT_SPEC
        assert "--theta" in err

    def test_theta_conflicts_with_carpet(self, capsys, fixture_dir):
        code, _, err = run_cli(
            capsys,
            "pressure",
            "--spec", str(fixture_dir / "column_carpet_21.json"),
            "--theta", THETA_ARG,
            "--depth", "5",
        )
        assert code == EXIT_SPEC
        assert "conflicts" in err

    def test_precondition_exit(self, capsys, fixture_dir):
        code, _, _ = run_cli(
            capsys,
            "gibbs",
            "--spec", str(fixture_dir / "fibonacci_fiber.json"),
            "--theta", THETA_ARG,
            "--level", "4",
            "--n-max", "8",
        )
        assert code == EXIT_PRECONDITION

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_is_precondition(self, capsys, fixture_dir, threshold):
        code, out, err = run_cli(
            capsys,
            "additivity",
            "--spec", str(fixture_dir / "parity_oscillation.json"),
            "--max-len", "4",
            "--threshold", threshold,
        )
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err == "error: threshold must be finite\n"

    @pytest.mark.parametrize("theta", ["0", "1.5", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("pressure", "--depth", "4"),
            ("pressure", "--depth", "4", "--mode", "exact"),
            ("gibbs", "--level", "10", "--n-max", "2"),
            ("cesaro", "--level", "10", "--n-terms", "2"),
        ],
        ids=["pressure", "pressure-exact", "gibbs", "cesaro"],
    )
    def test_theta_outside_the_unit_interval_is_precondition(self, capsys, fixture_dir, argv, theta):
        spec = str(fixture_dir / "fibonacci_fiber.json")
        code, out, err = run_cli(capsys, argv[0], "--spec", spec, "--theta", theta, *argv[1:])
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err == "error: theta must be in (0, 1]\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("pressure", "--spec", "{dir}/fibonacci_fiber.json", "--theta", THETA_ARG, "--depth", "4",
             "--csv", "{blocked}/series.csv"),
            ("render", "--spec", "{dir}/column_carpet_21.json", "--level", "2", "--output", "{blocked}/x.pbm"),
            ("fixtures", "--out-dir", "{blocked}/fx"),
        ],
        ids=["pressure-csv", "render", "fixtures"],
    )
    def test_write_below_a_regular_file_is_spec_error(self, capsys, tmp_path, fixture_dir, argv):
        blocked = tmp_path / "regular-file"
        blocked.write_text("")
        argv = [arg.format(dir=fixture_dir, blocked=blocked) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_SPEC
        assert out == ""
        assert err.startswith("error: cannot write")

    def test_non_image_cycle_is_precondition(self, capsys, fixture_dir):
        code, _, _ = run_cli(
            capsys,
            "compensation",
            "--spec", str(fixture_dir / "parity_oscillation.json"),
            "--cycle", "1",
        )
        assert code == EXIT_PRECONDITION

    @pytest.mark.parametrize(
        "argv, unknown",
        [
            (("counts", "--word", "1,3"), "['3']"),
            (("counts", "--word", "12x"), "['x']"),
            (("counts", "--word", "1 2,1"), "['1 2']"),
            (("compensation", "--cycle", "3"), "['3']"),
            (("compensation", "--cycle", "2", "--preperiod", "x,1,y,x"), "['x', 'y']"),
        ],
        ids=["word-commas", "word-bare", "word-inner-blank", "cycle", "preperiod"],
    )
    def test_unknown_letters_are_precondition(self, capsys, fixture_dir, argv, unknown):
        """A letter outside the image alphabet names no image word, so
        counts and compensation refuse it with exit 2 and a message that
        names the unknown letters, each once in order, and the alphabet."""
        spec = str(fixture_dir / "parity_oscillation.json")
        code, out, err = run_cli(capsys, argv[0], "--spec", spec, *argv[1:])
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err == f"error: unknown letters {unknown}: the image alphabet is ['1', '2']\n"

    def test_a_word_of_known_letters_that_does_not_occur_counts_zero(self, capsys, fixture_dir):
        doc = run_json(capsys, "counts", "--spec", str(fixture_dir / "parity_oscillation.json"),
                       "--word", "1,1", "--no-timestamp")
        assert (doc["word"], doc["count"]) == (["1", "1"], 0)

    def test_resource_exit(self, capsys, fixture_dir):
        code, _, _ = run_cli(
            capsys,
            "pressure",
            "--spec", str(fixture_dir / "fibonacci_fiber.json"),
            "--theta", THETA_ARG,
            "--depth", "24",
            "--mode", "exact",
            "--node-budget", "100000",
        )
        assert code == EXIT_RESOURCE

    def test_exact_csv_resource_exit(self, capsys, tmp_path, fixture_dir):
        csv_path = tmp_path / "series.csv"
        code, out, err = run_cli(
            capsys,
            "pressure",
            "--spec", str(fixture_dir / "fibonacci_fiber.json"),
            "--theta", THETA_ARG,
            "--depth", "24",
            "--mode", "exact",
            "--csv", str(csv_path),
            "--node-budget", "100000",
        )
        assert code == EXIT_RESOURCE
        assert out == "" and "node budget exceeded" in err
        assert not csv_path.exists()

    def test_cesaro_paths_count_against_the_budget(self, capsys, fixture_dir):
        """The paths that build the probe words' masses count against the
        node budget with the nodes the sweep visited."""
        code, out, err = run_cli(
            capsys,
            "cesaro",
            "--spec", str(fixture_dir / "column_carpet_21.json"),
            "--level", "24",
            "--n-terms", "1",
            "--probe-depth", "12",
            "--node-budget", "1000",
        )
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "node budget exceeded" in err and "word length" in err

    def test_out_of_memory_exits_resource(self, capsys, fixture_dir, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "hausdorff_dimension", exhausted)
        code, out, err = run_cli(
            capsys,
            "dimension",
            "--spec", str(fixture_dir / "column_carpet_21.json"),
            "--depth", "5",
        )
        assert code == EXIT_RESOURCE
        assert out == ""
        assert err.startswith("error: out of memory")

    def test_render_budget_exit(self, capsys, fixture_dir):
        code, _, _ = run_cli(
            capsys,
            "render",
            "--spec", str(fixture_dir / "column_carpet_21.json"),
            "--level", "30",
            "--output", "never-written.pbm",
        )
        assert code == EXIT_RESOURCE

    def test_render_of_a_huge_level_exits_cleanly(self, tmp_path, fixture_dir):
        """The level is held to the budget before l^k is built, and the
        message names the powers, not their digits."""
        proc = subprocess.run(
            [sys.executable, "-m", "carpetdim", "render",
             "--spec", str(fixture_dir / "column_carpet_21.json"),
             "--level", "100000", "--output", str(tmp_path / "never-written.pbm")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_RESOURCE
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (
            "error: render budget exceeded: 3^100000 x 2^100000 cells over the 67108864-cell budget\n"
        )


def test_module_entry_point(tmp_path):
    out_dir = tmp_path / "fx"
    proc = subprocess.run(
        [sys.executable, "-m", "carpetdim", "fixtures", "--out-dir", str(out_dir), "--no-timestamp"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "fixtures"


EXTREME_MEMORY_B = 512 << 20  # the address space of each extreme call
EXTREME_TIMEOUT_S = 60
_FIB = ["--spec", "{dir}/fibonacci_fiber.json", "--theta", THETA_ARG]
_COLUMN = ["--spec", "{dir}/column_carpet_21.json"]
# extreme but valid arguments, each with the exit code it ends in
EXTREME_CALLS = {
    "counts_of_4342_digits": (EXIT_OK, ["counts", "--spec", "{dir}/full_torus_32.json", "--word", "0" * 9100]),
    "render_level_40": (EXIT_RESOURCE, ["render", *_COLUMN, "--level", "40", "--output", "{dir}/never.pbm"]),
    "carpet_of_1e15_rows": (EXIT_OK, ["dimension", "--spec", "{dir}/wide_rows.json", "--depth", "3"]),
    "compensation_of_2100_letters": (
        EXIT_OK, ["compensation", "--spec", "{dir}/bipartite_fiber.json", "--cycle", "2" * 2100]),
    "cesaro_probe_over_budget": (
        EXIT_RESOURCE,
        ["cesaro", *_COLUMN, "--level", "24", "--n-terms", "1", "--probe-depth", "18", "--node-budget", "1000"]),
    "dimension_budget_1": (EXIT_RESOURCE, ["dimension", *_COLUMN, "--depth", "12", "--node-budget", "1"]),
    "pressure_budget_1": (EXIT_RESOURCE, ["pressure", *_FIB, "--depth", "12", "--node-budget", "1"]),
    "gibbs_budget_1": (EXIT_RESOURCE, ["gibbs", *_FIB, "--level", "14", "--n-max", "6", "--node-budget", "1"]),
    "cesaro_budget_1": (EXIT_RESOURCE, ["cesaro", *_FIB, "--level", "14", "--n-terms", "6", "--node-budget", "1"]),
    "additivity_budget_1": (
        EXIT_RESOURCE, ["additivity", "--spec", "{dir}/parity_oscillation.json", "--max-len", "8", "--node-budget", "1"]),
    "pressure_theta_5e-324": (
        EXIT_OK, ["pressure", "--spec", "{dir}/fibonacci_fiber.json", "--theta", "5e-324", "--depth", "12"]),
    "gibbs_theta_5e-324": (
        EXIT_OK,
        ["gibbs", "--spec", "{dir}/fibonacci_fiber.json", "--theta", "5e-324", "--level", "14", "--n-max", "6"]),
    "dimension_depth_100000": (EXIT_OK, ["dimension", "--spec", "{dir}/full_torus_32.json", "--depth", "100000"]),
    "dimension_7x3_depth_16": (EXIT_OK, ["dimension", "--spec", "{dir}/7x3_0.json", "--depth", "16"]),
    "pressure_csv_7x3_depth_15": (
        EXIT_OK, ["pressure", "--spec", "{dir}/7x3_0.json", "--depth", "15", "--csv", "{dir}/series_7x3.csv"]),
}
# the first 7x3 restricted carpet of perfbench's seed-1 plan: S_16 reads
# 11.5M pairs, which held as one term each took about 900 MB
CARPET_7X3_0 = {
    "schema": 1, "kind": "carpet", "name": "7x3_0", "l": 7, "m": 3,
    "digits": [[0, 0], [1, 0], [3, 0], [4, 0], [6, 0], [0, 1], [2, 1], [3, 1], [4, 1], [5, 1], [6, 1],
               [1, 2], [2, 2], [4, 2]],
    "transitions": [[i, j] for i, row in enumerate((
        (0, 1, 2, 5, 6, 7, 9, 10, 11, 12, 13),
        (1, 2, 3, 4, 7, 10, 11, 12),
        (3, 4, 5, 7, 11, 13),
        (1, 2, 3, 4, 6, 7, 8, 9, 10),
        (2, 4, 5, 6, 8, 9, 11),
        (0, 2, 4, 5, 7, 9, 10),
        (0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 13),
        (0, 2, 3, 9, 12),
        (0, 4, 8, 10, 11, 13),
        (0, 1, 2, 4, 5, 8, 10, 12),
        (0, 1, 2, 3, 5, 6, 11, 12),
        (1, 11),
        (0, 2, 3, 4, 7, 8, 9, 10, 11),
        (1, 3, 4, 8, 10, 11),
    )) for j in row],
}


@pytest.fixture(scope="module")
def extreme_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("extreme")
    write_fixture_files(out)
    (out / "wide_rows.json").write_text(json.dumps({
        "schema": 1, "kind": "carpet", "l": 10**15 + 1, "m": 10**15,
        "digits": [[0, 0], [1, 5]], "transitions": "full",
    }))
    (out / "7x3_0.json").write_text(json.dumps(CARPET_7X3_0))
    return out


def _cap_address_space(limit=EXTREME_MEMORY_B):
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


# a handler whose frame holds the address space up to the cap when it
# runs out, as an engine's caller does: the fill gives back a reserve
# before it raises, so that the traceback can take that frame in.
# Writing to stderr takes memory, as formatting a message does, so only
# a write made once the frame is let go gets through
_HOG = """
import sys
from carpetdim import cli


def fill(box):
    reserve = bytes(1 << 16)
    for size in [1 << k for k in range(24, 9, -1)] + list(range(512, 0, -8)):
        try:
            while True:
                box[0] = box[0], bytes(size)  # one small allocation per hold
        except MemoryError:
            pass
    del reserve
    raise MemoryError


def hog(config):
    box = [None]
    fill(box)


class Stderr:
    def write(self, text):
        bytes(1 << 20)
        return sys.__stderr__.write(text)

    def flush(self):
        sys.__stderr__.flush()


cli._cmd_analyze = hog
sys.stderr = Stderr()
sys.exit(cli.main(["analyze", "--spec", sys.argv[1]]))
"""


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_AS")
def test_out_of_memory_at_the_cap_exits_resource(extreme_dir):
    """A run that fills the address space ends in exit 3 and one line on
    stderr: the message is written once ``main`` has left its except
    block, whose traceback holds the frames that hold the memory, so
    writing it cannot run out again and chain a traceback."""
    proc = subprocess.run(
        [sys.executable, "-c", _HOG, str(extreme_dir / "parity_oscillation.json")],
        capture_output=True,
        text=True,
        preexec_fn=lambda: _cap_address_space(256 << 20),
        timeout=EXTREME_TIMEOUT_S,
    )
    assert proc.returncode == EXIT_RESOURCE, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: out of memory; lower the depth or the node budget\n"


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_AS")
@pytest.mark.parametrize("name", list(EXTREME_CALLS))
def test_extreme_arguments_end_cleanly(name, extreme_dir):
    """Each command at arguments that are extreme but valid, in a fresh
    process under a 512 MB address space and a timeout, ends in a JSON
    report or a clean exit 1, 2 or 3, never in a traceback.  The report
    is read with the cap on an int's digits lifted, as the CLI writes it."""
    code, argv = EXTREME_CALLS[name]
    argv = [arg.format(dir=extreme_dir) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "carpetdim", *argv, "--no-timestamp"],
        capture_output=True,
        text=True,
        preexec_fn=_cap_address_space,
        timeout=EXTREME_TIMEOUT_S,
    )
    assert proc.returncode in (EXIT_OK, EXIT_SPEC, EXIT_PRECONDITION, EXIT_RESOURCE), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code, proc.stderr
    if code == EXIT_OK:
        with cli._ExactInts():
            assert json.loads(proc.stdout)["command"] == argv[0]
    else:
        assert proc.stdout == "" and proc.stderr.startswith("error:")


@st.composite
def spec_documents(draw):
    """A small factor system or carpet document in which every symbol
    has a successor, mixing or not, and its image letters."""
    if draw(st.booleans()):
        symbols = [str(i) for i in range(draw(st.integers(1, 4)))]
        successors = st.lists(st.sampled_from(symbols), min_size=1, unique=True)
        edges = [[a, b] for a in symbols for b in draw(successors)]
        letter_map = {s: draw(st.sampled_from("xy")) for s in symbols}
        doc = {"schema": 1, "kind": "factor_system", "symbols": symbols,
               "edges": edges, "letter_map": letter_map}
        return doc, sorted(set(letter_map.values()))
    m = draw(st.integers(2, 3))
    l = draw(st.integers(m + 1, 5))
    cells = [(a, b) for b in range(m) for a in range(l)]
    digits = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=6, unique=True))
    transitions = "full"
    if draw(st.booleans()):
        successors = st.lists(st.integers(0, len(digits) - 1), min_size=1, unique=True)
        transitions = [[i, j] for i in range(len(digits)) for j in draw(successors)]
    doc = {"schema": 1, "kind": "carpet", "l": l, "m": m, "digits": [list(d) for d in digits],
           "transitions": transitions}
    return doc, [str(b) for b in range(m)]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=spec_documents(), data=st.data())
def test_every_command_ends_in_a_report_or_a_clean_exit(fuzz_dir, case, data):
    """Seeded random small documents through every command: each run
    prints one JSON report, or exits 1, 2 or 3 with an error on stderr;
    any other exception fails the test with its traceback."""
    doc, letters = case
    spec = str(fuzz_dir / "spec.json")
    write_document(doc, spec)
    carpet = doc["kind"] == "carpet"
    theta = [] if carpet else ["--theta", repr(data.draw(st.floats(0.05, 1.0)))]
    budget = ["--node-budget", data.draw(st.sampled_from(["40", "20000"]))]
    word = ",".join(data.draw(st.lists(st.sampled_from(letters), min_size=1, max_size=5)))
    cycle = ",".join(data.draw(st.lists(st.sampled_from(letters), min_size=1, max_size=2)))
    level = data.draw(st.integers(2, 9))
    commands = [
        ["analyze"],
        ["dimension", "--depth", str(data.draw(st.integers(1, 6))), *budget],
        ["pressure", "--depth", str(data.draw(st.integers(1, 8))), *theta, *budget,
         "--csv", str(fuzz_dir / "series.csv")],
        ["counts", "--word", word],
        ["gibbs", "--level", str(level), "--n-max", str(data.draw(st.integers(1, 3))), *theta, *budget],
        ["additivity", "--max-len", str(data.draw(st.integers(1, 5))), *budget],
        ["cesaro", "--level", str(level), "--n-terms", str(data.draw(st.integers(1, 4))),
         "--probe-depth", str(data.draw(st.integers(1, 2))), *theta, *budget],
        ["compensation", "--cycle", cycle, "--depth", str(data.draw(st.integers(1, 6)))],
        ["render", "--level", str(data.draw(st.integers(1, 2))), "--output", str(fuzz_dir / "out.pbm")],
    ]
    for argv in commands:
        argv = [argv[0], "--spec", spec, *argv[1:], "--no-timestamp"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == EXIT_OK:
            assert json.loads(out.getvalue())["command"] == argv[0], argv
        else:
            assert code in (EXIT_SPEC, EXIT_PRECONDITION, EXIT_RESOURCE), (argv, code)
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith(("error:", "usage:")), (argv, err.getvalue())
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "--out-dir", str(fuzz_dir / "fixtures"), "--no-timestamp"]) == EXIT_OK
