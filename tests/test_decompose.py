"""Unit-sum and unit-difference decompositions of the particle charges.

All multiplicities here were first computed by an independent exhaustive
scan over the 24x24 unit pairs and are frozen as regression values.
"""

from __future__ import annotations

import pytest

from hurwitzq.decompose import (
    conjugate_exclusions,
    diff_decompositions,
    doublet_search,
    evaluate_unit_expression,
    sum_decompositions,
    table3_assignments,
    table3_rows,
    unit_coverage_report,
)
from hurwitzq.lattices import hurwitz_units, trit_quaternions, unit_named
from hurwitzq.particles import particle, registry
from hurwitzq.quaternions import Quaternion, ZERO, parse_quaternion
from hurwitzq.scalars import FieldMismatchError, QuadScalar


def names(pairs):
    return [(a.name, b.name) for a, b in pairs]


class TestSumDecompositions:
    def test_neutrino(self):
        result = sum_decompositions(particle("nu").charge)
        assert result.multiplicity == 4
        assert names(result.pairs) == [
            ("h1", "h8"),
            ("h2", "h7"),
            ("h3", "h6"),
            ("h4", "h5"),
        ]

    def test_electron(self):
        result = sum_decompositions(particle("e-").charge)
        assert result.multiplicity == 1
        assert names(result.pairs) == [("h8", "h8")]

    def test_up_quarks(self):
        expected = {"u_R": [("h1", "h5")], "u_B": [("h1", "h3")], "u_G": [("h1", "h2")]}
        for name, pairs in expected.items():
            result = sum_decompositions(particle(name).charge)
            assert result.multiplicity == 1
            assert names(result.pairs) == pairs

    def test_down_quarks_have_multiplicity_3(self):
        for name in ("d_R", "d_B", "d_G"):
            assert sum_decompositions(particle(name).charge).multiplicity == 3

    def test_d_R_pairs(self):
        result = sum_decompositions(particle("d_R").charge)
        assert names(result.pairs) == [("1", "-i"), ("h5", "h8"), ("h6", "h7")]

    def test_pairs_actually_sum_to_the_target(self):
        for p in registry():
            result = sum_decompositions(p.charge)
            for a, b in result.pairs:
                assert a.value + b.value == p.charge

    def test_pairs_are_unordered(self):
        for p in registry():
            units = list(hurwitz_units())
            order = {atom.name: i for i, atom in enumerate(units)}
            for a, b in sum_decompositions(p.charge).pairs:
                assert order[a.name] <= order[b.name]

    def test_zero_target(self):
        result = sum_decompositions(ZERO)
        assert result.multiplicity == 12
        for a, b in result.pairs:
            assert b.value == -a.value

    def test_negated_target_mirrors_the_pairs(self):
        for name in ("nu", "e-", "u_R", "d_G"):
            target = particle(name).charge
            direct = sum_decompositions(target)
            mirrored = sum_decompositions(-target)
            assert mirrored.multiplicity == direct.multiplicity
            direct_values = {
                frozenset((str(a.value), str(b.value))) for a, b in direct.pairs
            }
            negated_values = {
                frozenset((str(-a.value), str(-b.value))) for a, b in mirrored.pairs
            }
            assert negated_values == direct_values

    def test_requires_rational_target(self):
        with pytest.raises(FieldMismatchError):
            sum_decompositions(Quaternion(QuadScalar.sqrt(2), 0, 0, 0))


class TestDiffDecompositions:
    def test_w_bosons(self):
        plus = diff_decompositions(particle("W+").charge)
        assert plus.multiplicity == 2
        assert names(plus.pairs) == [("h1", "h8"), ("-h8", "-h1")]
        minus = diff_decompositions(particle("W-").charge)
        assert minus.multiplicity == 2
        assert names(minus.pairs) == [("h8", "h1"), ("-h1", "-h8")]

    def test_gluons_have_multiplicity_6(self):
        for name in ("g_BbarG", "g_GbarR", "g_RbarB", "g_GbarB", "g_RbarG", "g_BbarR"):
            assert diff_decompositions(particle(name).charge).multiplicity == 6

    def test_g_BbarG_includes_the_half_unit_identities(self):
        pairs = set(names(diff_decompositions(particle("g_BbarG").charge).pairs))
        assert ("j", "k") in pairs
        assert ("h2", "h3") in pairs
        assert ("h6", "h7") in pairs

    def test_pairs_actually_subtract_to_the_target(self):
        for name in ("W+", "g_RbarG", "g_GbarB"):
            target = particle(name).charge
            for a, b in diff_decompositions(target).pairs:
                assert a.value - b.value == target

    def test_diff_pairs_are_ordered(self):
        target = particle("W+").charge
        forward = set(names(diff_decompositions(target).pairs))
        backward = set(names(diff_decompositions(-target).pairs))
        assert forward == {(b, a) for a, b in backward}


class TestDoubletSearch:
    def test_lepton_doublet(self):
        matches = doublet_search(particle("nu").charge, particle("e-").charge)
        assert names(matches) == [("h8", "h1")]

    def test_quark_doublets(self):
        expected = {
            ("u_R", "d_R"): ("h5", "h1"),
            ("u_B", "d_B"): ("h3", "h1"),
            ("u_G", "d_G"): ("h2", "h1"),
        }
        for (up, down), pair in expected.items():
            matches = doublet_search(particle(up).charge, particle(down).charge)
            assert names(matches) == [pair]

    def test_doublet_identities(self):
        # shared + flipped = up and shared + conj(flipped) = down.
        matches = doublet_search(particle("u_R").charge, particle("d_R").charge)
        ((shared, flipped),) = matches
        assert shared.value + flipped.value == particle("u_R").charge
        assert shared.value + flipped.value.conjugate() == particle("d_R").charge

    def test_unrelated_pair_has_no_doublet(self):
        assert doublet_search(particle("u_R").charge, particle("u_R").charge) == []


class TestSearchesMatchBruteForce:
    """Each lookup search equals a full 24 x 24 scan, pairs in scan order."""

    @staticmethod
    def scan(predicate, ordered=True):
        units = hurwitz_units()
        return [
            (a, b)
            for i, a in enumerate(units)
            for b in (units if ordered else units[i:])
            if predicate(a.value, b.value)
        ]

    def test_sum_over_all_trits(self):
        for target in (t.value for t in trit_quaternions()):
            expected = self.scan(lambda a, b: a + b == target, ordered=False)
            assert list(sum_decompositions(target).pairs) == expected

    def test_diff_over_all_trits(self):
        for target in (t.value for t in trit_quaternions()):
            expected = self.scan(lambda a, b: a - b == target)
            assert list(diff_decompositions(target).pairs) == expected

    def test_doublet_over_all_registry_charge_pairs(self):
        units = hurwitz_units()
        both = [
            (n, m, n.value + m.value, n.value + m.value.conjugate())
            for n in units
            for m in units
        ]
        charges = list(dict.fromkeys(row.charge for row in registry()))
        found = 0
        for up in charges:
            for down in charges:
                expected = [(n, m) for n, m, s, t in both if s == up and t == down]
                assert doublet_search(up, down) == expected
                found += len(expected)
        assert found >= 4  # at least the four registry doublets


class TestTable3:
    def test_assignments_pass_their_internal_checks(self):
        assignments = table3_assignments()
        assert [d.up_name for d in assignments.doublets] == ["nu", "u_R", "u_B", "u_G"]
        assert [d.shared.name for d in assignments.doublets] == ["h8", "h5", "h3", "h2"]
        assert all(d.flipped.name == "h1" for d in assignments.doublets)
        assert assignments.w_plus[0].name == "h1"
        assert assignments.w_plus[1].name == "h8"

    def test_gluon_assignments(self):
        assignments = table3_assignments()
        as_names = {(name, a.name, b.name) for name, a, b in assignments.gluons}
        assert ("g_BbarG", "h6", "h7") in as_names
        assert ("g_GbarR", "h7", "h4") in as_names
        assert ("g_RbarB", "h4", "h6") in as_names
        assert ("g_GbarB", "h7", "h6") in as_names
        assert len(as_names) == 6

    def test_expressions_by_row(self):
        expressions = {row.name: row.expression for row in table3_rows()}
        assert expressions["gamma"] == ""
        assert expressions["Z0"] == ""
        assert expressions["W+"] == "+i+j+k"
        assert expressions["W-"] == "-i-j-k"
        assert expressions["g_BbarG"] == "+h6-h7"
        assert expressions["g_GbarB"] == "-h6+h7"
        assert expressions["nu"] == "1"
        assert expressions["nubar"] == "-1"
        assert expressions["e-"] == "+h8+conj(h1)"
        assert expressions["e+"] == "-h8-conj(h1)"
        assert expressions["u_R"] == "+h5+h1"
        assert expressions["d_R"] == "+h5+conj(h1)"
        assert expressions["dbar_G"] == "-h2-conj(h1)"

    def test_every_expression_evaluates_to_the_registry_charge(self):
        for row in table3_rows():
            assert evaluate_unit_expression(row.expression) == particle(row.name).charge

    def test_rows_cover_the_registry(self):
        assert [row.name for row in table3_rows()] == [p.name for p in registry()]


class TestExpressionEvaluation:
    def test_examples(self):
        assert evaluate_unit_expression("") == ZERO
        assert evaluate_unit_expression("1") == Quaternion(1, 0, 0, 0)
        assert evaluate_unit_expression("+i+j+k") == Quaternion(0, 1, 1, 1)
        assert evaluate_unit_expression("+h6-h7") == particle("g_BbarG").charge
        assert evaluate_unit_expression("conj(h1)") == unit_named("h1").value.conjugate()
        assert evaluate_unit_expression("+h8+conj(h1)") == particle("e-").charge

    def test_whitespace_tolerated(self):
        assert evaluate_unit_expression(" +h6 - h7 ") == particle("g_BbarG").charge

    @pytest.mark.parametrize("text", ["+", "h9", "h1 h2", "conj(h1", "2*h1"])
    def test_rejects_malformed_expressions(self, text):
        with pytest.raises(ValueError):
            evaluate_unit_expression(text)


class TestConjugateExclusions:
    def test_six_exclusions_all_hold(self):
        checks = conjugate_exclusions()
        assert len(checks) == 6

    def test_excluded_values_are_not_registry_charges(self):
        charges = {p.charge for p in registry()}
        for check in conjugate_exclusions():
            assert check.value not in charges

    def test_first_exclusion(self):
        check = conjugate_exclusions()[0]
        assert check.expression == "+h4+h1"
        assert check.value == Quaternion(1, 1, 0, 0)


class TestUnitCoverage:
    def test_coverage_is_complete(self):
        report = unit_coverage_report()
        assert report.complete
        assert report.missing == []

    def test_one_entry_per_unit(self):
        report = unit_coverage_report()
        assert [name for name, _ in report.sources] == [
            atom.name for atom in hurwitz_units()
        ]
        assert all(tags for _, tags in report.sources)

    def test_units_by_source(self):
        report = unit_coverage_report()
        assert report.units_used_by("doublets") == {
            "h1", "-h1", "h2", "-h2", "h3", "-h3", "h5", "-h5", "h8", "-h8"
        }
        assert report.units_used_by("gluons") == {
            "h4", "-h4", "h6", "-h6", "h7", "-h7"
        }
        assert report.units_used_by("neutrino") == {"1", "-1"}
        assert report.units_used_by("w-bosons") == {
            "h1", "-h1", "h8", "-h8", "i", "-i", "j", "-j", "k", "-k"
        }

    def test_every_unit_is_reached(self):
        report = unit_coverage_report()
        reached = set()
        for source in ("doublets", "neutrino", "w-bosons", "gluons"):
            reached.update(report.units_used_by(source))
        assert reached == {atom.name for atom in hurwitz_units()}
