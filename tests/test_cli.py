"""Command line contract: exit codes, reports, round trips."""

import json
from dataclasses import replace

import pytest

from z2covers import cli
from z2covers.cli import main, verify_report
from z2covers.construction import construct_family, single_torsion_mutations
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
        monkeypatch.setattr(cli, "realize", lambda *args: replace(real(*args), ok=False))
        assert main(["verify", str(family_file), "--oracle", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["relations"]["ok"] is True
        assert report["oracle"]["ok"] is False

    @pytest.mark.parametrize(
        "flags",
        [
            ["--oracle-a", "0", "--oracle-b", "0"],  # singular curve
            ["--oracle-prime", "5"],  # no room for the family's coefficients
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

    def test_reversed_range_is_a_usage_error(self):
        assert main(["sweep", "5..3"]) == 2

    def test_out_of_bounds_range_is_a_usage_error(self):
        assert main(["sweep", "1..3"]) == 2
        assert main(["sweep", "2..65"]) == 2

    def test_garbled_range_is_a_usage_error(self):
        assert main(["sweep", "3-6"]) == 2


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
