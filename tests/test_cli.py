"""Command line contract: exit codes, reports, round trips."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import golden_inputs
from z2covers import cli, curve_oracle
from z2covers.abgroup import GroupSpec
from z2covers.characters import CoverElement, nontrivial_characters
from z2covers.cli import main, verify_report
from z2covers.construction import construct_etale, construct_family, single_torsion_mutations
from z2covers.cover import BuildingData, Fiber
from z2covers.curve_oracle import RealizationReport
from z2covers.invariants import canonical_map_degree
from z2covers.picard import SurfaceClass
from z2covers.serialize import dumps, loads


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family3.bd.json"
    assert main(["construct", "--n", "3", "--out", str(path)]) == 0
    return path


@pytest.fixture
def mutated_file(tmp_path):
    bd = construct_family(3)
    _, _, mutant = next(iter(single_torsion_mutations(bd)))
    path = tmp_path / "mutant.bd.json"
    path.write_text(dumps(mutant))
    return path


class TestConstruct:
    def test_writes_the_expected_shape(self, family_file):
        doc = json.loads(family_file.read_text())
        assert len(doc["L"]) == 7
        assert sum(1 for comps in doc["D"].values() if comps) == 4

    def test_small_n_is_a_usage_error(self, capsys):
        assert main(["construct", "--n", "1"]) == 2
        assert "at least 2" in capsys.readouterr().err

    def test_halving_flag_round_trips(self, tmp_path):
        path = tmp_path / "alt.bd.json"
        assert main(["construct", "--n", "3", "--halving", "1,0,2", "--out", str(path)]) == 0
        assert main(["verify", str(path)]) == 0
        assert loads(path.read_text()) == construct_family(3, (1, 0, 2))

    def test_bad_halving_flag_is_a_usage_error(self):
        assert main(["construct", "--n", "3", "--halving", "a,b,c"]) == 2
        assert main(["construct", "--n", "3", "--halving", "1,2"]) == 2
        assert main(["construct", "--n", "3", "--halving", ""]) == 2

    def test_stdout_emission(self, capsys):
        assert main(["construct", "--n", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["group_spec"]["rank"] == 5


class TestVerify:
    def test_family_file_passes(self, family_file, capsys):
        assert main(["verify", str(family_file), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["relations"]["ok"] is True
        assert report["relations"]["pairs_checked"] == 28
        assert report["canonical_map"]["degree"] == 8
        assert report["invariants"]["k_squared"] == 48

    def test_mutated_file_fails_with_the_pair_named(self, mutated_file, capsys):
        assert main(["verify", str(mutated_file), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["relations"]["ok"] is False
        assert report["relations"]["failures"]
        first = report["relations"]["failures"][0]
        assert set(first) == {"chi", "chi_prime", "lhs", "rhs"}

    def test_malformed_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        assert main(["verify", str(path)]) == 3

    def test_missing_file_is_a_parse_error(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.json")]) == 3

    def test_report_matches_in_memory_pipeline_byte_for_byte(self, family_file):
        bd = construct_family(3)
        from_memory = json.dumps(verify_report(bd), sort_keys=True, indent=2)
        from_file = json.dumps(
            verify_report(loads(family_file.read_text())), sort_keys=True, indent=2
        )
        assert from_memory == from_file

    def test_oracle_section(self, family_file, capsys):
        code = main([
            "verify", str(family_file), "--oracle",
            "--oracle-prime", "2003", "--format", "json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle"]["ok"] is True
        assert report["oracle"]["order"] == 2004
        assert report["oracle"]["relations_checked"] == 28

    def test_non_integer_field_is_a_parse_error(self, family_file, capsys):
        doc = json.loads(family_file.read_text())
        doc["L"]["110"]["a"] = 2.9
        family_file.write_text(json.dumps(doc))
        assert main(["verify", str(family_file)]) == 3
        assert "JSON integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1.0, True])
    def test_non_integer_free_coordinate_is_a_parse_error(self, family_file, value, capsys):
        doc = json.loads(family_file.read_text())
        assert doc["points_c"]["F1"]["free"][3] == 1
        doc["points_c"]["F1"]["free"][3] = value
        family_file.write_text(json.dumps(doc))
        assert main(["verify", str(family_file)]) == 3
        assert "error" in capsys.readouterr().err

    def test_oracle_fail_is_a_verification_failure(self, family_file, monkeypatch, capsys):
        real = cli.realize
        monkeypatch.setattr(cli, "realize", lambda *args: real(*args)._replace(ok=False))
        assert main(["verify", str(family_file), "--oracle", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["relations"]["ok"] is True
        assert report["oracle"]["ok"] is False

    def test_the_oracle_section_names_the_points_that_collide(
        self, family_file, monkeypatch, capsys
    ):
        # F1 and F2 are the free generators 3 and 4 of the family's model.
        real = cli.find_assignment

        def merged(bd, curve):
            assignment = real(bd, curve)
            free = list(assignment.free_points)
            free[4] = free[3]
            return assignment._replace(free_points=tuple(free))

        monkeypatch.setattr(cli, "find_assignment", merged)
        assert main(["verify", str(family_file), "--oracle", "--format", "json"]) == 1
        oracle = json.loads(capsys.readouterr().out)["oracle"]
        header = {"prime", "a", "b", "order", "invariant_factors"}
        assert set(oracle) == header | set(RealizationReport._fields)
        assert oracle["collisions"] == [["F1", "F2"]]
        assert (oracle["ok"], oracle["injective"]) == (False, False)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--oracle-a", "0", "--oracle-b", "0"],  # singular curve
            ["--oracle-prime", "5"],  # no faithful assignment on so small a curve
            ["--oracle-prime", "9"],  # not a prime
        ],
    )
    def test_oracle_that_cannot_run_is_a_usage_error(self, family_file, flags, capsys):
        assert main(["verify", str(family_file), "--oracle", "--format", "json", *flags]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["relations"]["ok"] is True
        assert "error" in report["oracle"]

    def test_oracle_on_a_mutant_is_a_verification_failure(self, mutated_file, capsys):
        assert main(["verify", str(mutated_file), "--oracle", "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["oracle"]["ok"] is False

    def test_oracle_runs_on_a_family_of_eleven_fibers(self, tmp_path, capsys):
        path = tmp_path / "family11.bd.json"
        path.write_text(dumps(construct_family(11)))
        assert main(["verify", str(path), "--oracle", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle"]["ok"] is True
        assert report["oracle"]["relation_failures"] == []

    def test_oracle_on_a_tiny_curve_finds_no_faithful_assignment(self, family_file, capsys):
        argv = ["verify", str(family_file), "--oracle", "--oracle-prime", "11", "--format", "json"]
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().out)["oracle"]["error"]
        assert error == "no faithful assignment found in 400 attempts"

    def test_oracle_on_a_one_point_curve_says_why_it_cannot_run(self, tmp_path, capsys):
        # y^2 = x^3 + 2x + 2 has no affine point over F_3: its group is {O}.  The
        # data is accepted (2L = F_P + F_Q), so the oracle's error decides the exit.
        spec = GroupSpec(2)
        g, h = spec.free_generator(0), spec.free_generator(1)
        only = nontrivial_characters(1)[0]
        sigma = CoverElement.from_string("1")
        bd = BuildingData(spec, {"P": g + h, "Q": g - h}, (), {only: SurfaceClass(0, 1, g)},
                          {sigma: (Fiber("F", "P"), Fiber("F", "Q"))})
        assert verify_report(bd)["invariants"] is not None
        path = tmp_path / "rank2.bd.json"
        path.write_text(dumps(bd))
        flags = ["--oracle", "--oracle-prime", "3", "--oracle-a", "2", "--oracle-b", "2"]
        assert main(["verify", str(path), *flags]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "oracle: error: curve has only the point O, so free generators have no image"

    @pytest.mark.parametrize("prime", [10_007, 2**61 - 1])
    def test_a_prime_beyond_enumeration_is_refused_before_any_trial_division(
        self, family_file, prime, monkeypatch, capsys
    ):
        def refuse(n):
            raise AssertionError("trial division ran")

        monkeypatch.setattr(curve_oracle, "is_prime", refuse)
        argv = ["verify", str(family_file), "--oracle", "--format", "json"]
        assert main([*argv, "--oracle-prime", str(prime)]) == 2
        error = json.loads(capsys.readouterr().out)["oracle"]["error"]
        assert error == f"p = {prime} too large for exhaustive enumeration"


class TestTable:
    def test_family_table_renders_six_equal_rows(self, family_file, capsys):
        assert main(["table", str(family_file)]) == 0
        out = capsys.readouterr().out
        assert out.count("[equal]") == 6

    def test_json_rows(self, family_file, capsys):
        assert main(["table", str(family_file), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 6
        assert rows[0]["rhs"] == "6E + 2ΣF_ii"

    def test_mutated_file_reports_an_unequal_row(self, mutated_file, capsys):
        assert main(["table", str(mutated_file)]) == 1
        assert "UNEQUAL" in capsys.readouterr().out

    def test_data_not_of_the_family_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "etale3.bd.json"
        path.write_text(dumps(construct_etale(3)))
        assert main(["verify", str(path)]) == 0
        capsys.readouterr()
        assert main(["table", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: relations table needs data built by construct_family\n"


class TestSweep:
    def test_range_rows(self, capsys):
        assert main(["sweep", "3..6", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [
            (r["k_squared"], r["p_g"], r["q"], r["image_degree"], r["degree"], r["base_point_free"])
            for r in rows
        ] == [
            (48, 6, 1, 6, 8, True),
            (64, 8, 1, 8, 8, True),
            (80, 10, 1, 10, 8, True),
            (96, 12, 1, 12, 8, True),
        ]

    def test_boundary_row(self, capsys):
        assert main(["sweep", "2..2", "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert (row["k_squared"], row["p_g"], row["q"]) == (32, 4, 1)
        assert (row["image_degree"], row["degree"], row["base_point_free"]) == (2, 16, True)

    def test_the_whole_range_follows_the_closed_forms(self, capsys):
        """From n = 3 on: K^2 = 16n, p_g = 2n, q = 1, an image of degree 2n,
        never the minimal p_g - 2, and a base point free map of degree 8.
        At n = 2 the map has degree 16 onto the quadric."""
        assert main(["sweep", "2..64", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["n"] for row in rows] == list(range(2, 65))
        for row in rows:
            n = row["n"]
            closed = {"n": n, "k_squared": 16 * n, "p_g": 2 * n, "q": 1, "image_degree": 2 * n,
                      "degree": 8, "base_point_free": True}
            if n == 2:
                closed.update(image_degree=2, degree=16)
            assert row == closed
            assert canonical_map_degree(construct_family(n)).image_minimal_degree is (n == 2)

    def test_a_member_the_verify_gate_refuses_fails_the_sweep(self, monkeypatch, capsys):
        smoothness = cli.verify_smoothness

        def node_at_four(bd):
            report = smoothness(bd)
            return report._replace(snc=False) if bd.group_spec.rank == 2 * 4 + 1 else report

        monkeypatch.setattr(cli, "verify_smoothness", node_at_four)
        assert main(["sweep", "2..6"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: family member n = 4 fails verification\n"

    def test_reversed_range_is_a_usage_error(self):
        assert main(["sweep", "5..3"]) == 2

    def test_out_of_bounds_range_is_a_usage_error(self):
        assert main(["sweep", "1..3"]) == 2
        assert main(["sweep", "2..65"]) == 2

    def test_garbled_range_is_a_usage_error(self):
        assert main(["sweep", "3-6"]) == 2


def test_importing_the_package_loads_only_the_standard_library():
    probe = (
        "import sys; before = set(sys.modules); import z2covers; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    loaded = {name.partition(".")[0] for name in result.stdout.split()}
    assert "z2covers" in loaded
    assert loaded - {"z2covers"} <= sys.stdlib_module_names


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_unknown_key_is_a_parse_error(tmp_path, capsys):
    doc = json.loads(dumps(construct_family(3)))
    doc["L"]["100"]["pic0"]["extra"] = 0
    path = tmp_path / "extra-key.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 3
    assert "keys" in capsys.readouterr().err


def test_repeated_key_is_a_parse_error(tmp_path, capsys):
    text = dumps(construct_family(3))
    assert text.count('"L": {\n') == 1
    wrong = json.dumps({"a": 4, "degree": 3, "pic0": {"free": [0] * 7, "tors": [0, 0]}})
    path = tmp_path / "repeated-key.json"
    path.write_text(text.replace('"L": {\n', '"L": {\n"100": ' + wrong + ",\n"))
    assert main(["verify", str(path)]) == 3
    assert "repeated key '100'" in capsys.readouterr().err


def test_a_fullwidth_bit_key_is_a_parse_error(tmp_path, capsys):
    text = dumps(construct_family(3))
    wrong = json.dumps({"a": 4, "degree": 3, "pic0": {"free": [0] * 7, "tors": [0, 0]}})
    path = tmp_path / "fullwidth-key.json"
    path.write_text(text.replace('"L": {\n', '"L": {\n"\uff1100": ' + wrong + ",\n"))
    assert main(["verify", str(path)]) == 3
    assert "ASCII bits" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "table"])
@pytest.mark.parametrize(
    "content,message",
    [
        (b'{"a": "\xff"}', None),  # not UTF-8
        # past the interpreter's int-digit limit; no advice on raising it
        (b'{"a": ' + b"9" * 5000 + b"}", "error: an integer has more than 4300 digits\n"),
        (b"[" * 100_000 + b"]" * 100_000, None),  # past the recursion limit
    ],
    ids=["non-utf8", "5000-digits", "deep-nesting"],
)
def test_an_unreadable_document_is_a_parse_error(tmp_path, capsys, command, content, message):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    assert main([command, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message is None or captured.err == message


@pytest.mark.parametrize(
    "argv",
    [["construct", "--n", "3"], ["verify", "FILE"], ["table", "FILE"], ["sweep", "2..3"]],
    ids=lambda argv: argv[0],
)
def test_an_unwritable_out_is_a_usage_error(tmp_path, family_file, capsys, argv):
    target = tmp_path / "missing" / "report.txt"
    argv = [str(family_file) if arg == "FILE" else arg for arg in argv]
    assert main([*argv, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out") and captured.err.count("\n") == 1
    assert not target.parent.exists()
    assert main([*argv, "--out", ""]) == 2  # an empty path is not stdout
    assert capsys.readouterr().out == ""


# Recorded reports: a key or byte that the rendering of the verdicts loses or
# changes fails here.
GOLDEN = pathlib.Path(__file__).resolve().parent / "data"
# One run a line: the golden file, the exit code, the argv.  The CI workflow
# replays the same file with the command line.
RUNS = GOLDEN / "golden_runs.txt"
GOLDEN_RUNS = [
    (golden, argv, int(code))
    for golden, code, *argv in map(str.split, RUNS.read_text(encoding="utf-8").splitlines())
]


def test_every_recorded_report_has_one_run():
    recorded = sorted(path.name for path in GOLDEN.glob("*.*") if path != RUNS)
    assert sorted(run[0] for run in GOLDEN_RUNS) == recorded


@pytest.mark.parametrize("golden, argv, code", GOLDEN_RUNS, ids=[run[0] for run in GOLDEN_RUNS])
def test_reports_match_the_recorded_bytes(tmp_path, capsys, golden, argv, code):
    documents = golden_inputs.documents()
    for name, bd in documents.items():
        (tmp_path / name).write_text(dumps(bd), encoding="utf-8")
    argv = [str(tmp_path / arg) if arg in documents else arg for arg in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN / golden).read_bytes()
