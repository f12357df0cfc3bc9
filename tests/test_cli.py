"""End-to-end exercise of the command-line interface.

Exit-code contract: 0 all checks pass, 1 verification failure, 2 usage
or parse error.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hurwitzq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTables:
    def test_table_1_text_contains_the_electron_row(self, capsys):
        code, out, _ = run(capsys, "tables", "1")
        assert code == 0
        assert "e- (1,-1,-1,-1) +1 -1 -1 -1/2" in out
        assert out.splitlines()[0] == "particle charge F_nb Z_el N I_z"
        assert len(out.splitlines()) == 29  # header + 28 rows

    def test_table_1_csv(self, capsys):
        code, out, _ = run(capsys, "tables", "1", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["name", "w", "x", "y", "z", "F_nb", "Z_el", "N", "I_z"]
        assert len(rows) == 29
        electron = next(r for r in rows if r[0] == "e-")
        assert electron == ["e-", "1", "-1", "-1", "-1", "1", "-1", "-1", "-1/2"]

    def test_table_2_csv_has_24_unit_rows(self, capsys):
        code, out, _ = run(capsys, "tables", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["name", "w", "x", "y", "z", "F_nb", "Z_el"]
        assert len(rows) == 25
        h2 = next(r for r in rows if r[0] == "h2")
        assert h2 == ["h2", "1/2", "1/2", "1/2", "-1/2", "1/2", "1/6"]

    def test_table_3_text_contains_the_gluon_row(self, capsys):
        code, out, _ = run(capsys, "tables", "3")
        assert code == 0
        assert "g_BbarG (0,0,1,-1) 0 0 +h6-h7" in out
        assert "W+ (0,1,1,1) 0 +1 +i+j+k" in out
        assert "W- (0,-1,-1,-1) 0 -1 -i-j-k" in out

    def test_table_3_json_carries_expressions(self, capsys):
        code, out, _ = run(capsys, "tables", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        expressions = {row[0]: row[-1] for row in data["payload"]["rows"]}
        assert expressions["e-"] == "+h8+conj(h1)"
        assert expressions["gamma"] == ""

    @pytest.mark.parametrize(
        "which, report_format, header",
        [
            ("1", "text", "particle charge F_nb Z_el N I_z"),
            ("1", "csv", "name,w,x,y,z,F_nb,Z_el,N,I_z"),
            ("2", "text", "unit value F_nb Z_el"),
            ("2", "csv", "name,w,x,y,z,F_nb,Z_el"),
            ("3", "text", "particle charge F_nb Z_el expression"),
            ("3", "csv", "name,w,x,y,z,F_nb,Z_el,expression"),
        ],
    )
    def test_header_row(self, capsys, which, report_format, header):
        code, out, _ = run(capsys, "tables", which, "--format", report_format)
        assert code == 0
        assert out.splitlines()[0] == header

    def test_unknown_table_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "tables", "4")
        assert code == 2
        assert err


class TestVerify:
    def test_clean_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert out.splitlines()[-1].startswith("pass ")
        counts = out.splitlines()[-1].split()
        assert int(counts[1]) >= 12
        assert counts[3] == "0"

    def test_json_lists_named_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["schema_version"] == 1
        names = [row[0] for row in data["payload"]["rows"]]
        assert "table-1-recomputation" in names
        assert "parity-survivor-count" in names
        assert "q120-normal-subgroups" in names
        assert data["fail_count"] == 0
        assert data["pass_count"] == len(names)

    def test_corrupted_registry_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--corrupt-registry")
        assert code == 1
        data_lines = [l for l in out.splitlines() if " fail " in l]
        assert data_lines
        assert out.splitlines()[-1].split()[3] != "0"

    def test_output_is_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "verify")
        _, second, _ = run(capsys, "verify")
        assert first == second


class TestDecompose:
    def test_sum_example(self, capsys):
        code, out, _ = run(capsys, "decompose", "(1,-1,0,0)", "--mode", "sum")
        assert code == 0
        lines = out.splitlines()
        assert "multiplicity 3" in lines
        assert "1 -i" in lines
        assert "h5 h8" in lines
        assert "h6 h7" in lines

    def test_diff_example(self, capsys):
        code, out, _ = run(capsys, "decompose", "(0,1,1,1)", "--mode", "diff")
        assert code == 0
        assert "multiplicity 2" in out.splitlines()
        assert "h1 h8" in out.splitlines()

    def test_doublet_example(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "(1,0,1,1)", "(1,-1,0,0)", "--mode", "doublet"
        )
        assert code == 0
        assert "h5 h1" in out.splitlines()
        assert "multiplicity 1" in out.splitlines()

    def test_parse_error_reports_position(self, capsys):
        code, _, err = run(capsys, "decompose", "(1,0,oops,1)", "--mode", "sum")
        assert code == 2
        assert "error:" in err
        assert "position" in err

    def test_wrong_target_count(self, capsys):
        code, _, err = run(capsys, "decompose", "(1,0,0,0)", "(0,1,0,0)", "--mode", "sum")
        assert code == 2
        assert "exactly 1" in err

    def test_doublet_needs_two_targets(self, capsys):
        code, _, err = run(capsys, "decompose", "(1,0,0,0)", "--mode", "doublet")
        assert code == 2
        assert "exactly 2" in err

    def test_surd_target_is_a_field_error(self, capsys):
        code, _, err = run(capsys, "decompose", "(1*sqrt(2),0,0,0)", "--mode", "sum")
        assert code == 2
        assert "error:" in err


class TestGroups:
    def test_order(self, capsys):
        code, out, _ = run(capsys, "groups", "q48", "order")
        assert code == 0
        assert out.splitlines() == ["group order", "q48 48"]

    def test_cayley_is_square(self, capsys):
        code, out, _ = run(capsys, "groups", "q8", "cayley")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9  # header + 8 rows
        assert lines[0].startswith("*")

    def test_classes(self, capsys):
        code, out, _ = run(capsys, "groups", "q8", "classes")
        assert code == 0
        sizes = sorted(int(line.split()[0]) for line in out.splitlines()[1:])
        assert sizes == [1, 1, 2, 2, 2]

    def test_normal_subgroups_of_q120(self, capsys):
        code, out, _ = run(capsys, "groups", "q120", "normal-subgroups")
        assert code == 0
        orders = [int(line.split()[0]) for line in out.splitlines()[1:]]
        assert orders == [1, 2, 120]

    def test_check_normal_true(self, capsys):
        code, out, _ = run(capsys, "groups", "q24", "check-normal", "q8")
        assert code == 0
        assert "is-subgroup yes" in out.splitlines()
        assert "is-normal yes" in out.splitlines()

    def test_check_normal_false_is_still_exit_0(self, capsys):
        code, out, _ = run(capsys, "groups", "q120", "check-normal", "q24")
        assert code == 0
        assert "is-normal no" in out.splitlines()

    def test_check_normal_non_subgroup_is_a_structured_failure(self, capsys):
        code, out, _ = run(capsys, "groups", "q8", "check-normal", "q24")
        assert code == 1
        assert "is-subgroup no" in out.splitlines()

    def test_check_normal_requires_a_subgroup_argument(self, capsys):
        code, _, err = run(capsys, "groups", "q8", "check-normal")
        assert code == 2
        assert err

    def test_subgroup_argument_rejected_elsewhere(self, capsys):
        code, _, err = run(capsys, "groups", "q8", "order", "q24")
        assert code == 2
        assert err


class TestExploreQ48:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "explore-q48")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "elements 24"
        assert len(lines) == 26  # note + header + 24 rows
        assert all(line.endswith("yes no") for line in lines[2:])

    def test_json(self, capsys):
        code, out, _ = run(capsys, "explore-q48", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["payload"]["rows"]) == 24


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_format(self, capsys):
        assert run(capsys, "verify", "--format", "yaml")[0] == 2

    def test_unknown_group(self, capsys):
        assert run(capsys, "groups", "q16", "order")[0] == 2


class TestCrossFormatConsistency:
    @pytest.mark.parametrize("which", ["1", "2", "3"])
    def test_tables_csv_and_json_agree(self, capsys, which):
        _, csv_out, _ = run(capsys, "tables", which, "--format", "csv")
        _, json_out, _ = run(capsys, "tables", which, "--format", "json")
        csv_rows = list(csv.reader(io.StringIO(csv_out)))
        data = json.loads(json_out)
        assert csv_rows[0] == data["payload"]["columns"]
        assert csv_rows[1:] == data["payload"]["rows"]


class TestModuleEntryPoint:
    """Both ``python -m`` entry points behave like the ``hurwitzq`` script."""

    @staticmethod
    def run_module(*argv, module="hurwitzq.cli"):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_tables_1(self):
        result = self.run_module("tables", "1")
        assert result.returncode == 0
        assert len(result.stdout.splitlines()) == 29

    def test_package_tables_1(self):
        result = self.run_module("tables", "1", module="hurwitzq")
        assert result.returncode == 0
        assert len(result.stdout.splitlines()) == 29

    def test_malformed_target_is_a_usage_error(self):
        result = self.run_module("decompose", "(1,-1,0", "--mode", "sum")
        assert result.returncode == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
