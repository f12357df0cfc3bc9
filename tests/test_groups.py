"""Finite quaternion unit groups and their normal-subgroup structure.

The independent oracle for normality is direct conjugation in quaternion
arithmetic; the oracle for the subgroup lattice (on the two smaller groups)
is exhaustive closure of all generator pairs, which covers every subgroup
because each subgroup of these groups is generated by at most two elements.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from hurwitzq.groups import (
    ClosureCapError,
    GroupConstructionError,
    NotASubgroupError,
    QGroup,
    closure,
    group_names,
    group_q8,
    group_q24,
    group_q48,
    group_q120,
    is_permutable,
    is_subgroup,
    named_group,
    normal_subgroups,
)
from hurwitzq.lattices import unit_named
from hurwitzq.quaternions import I, J, K, ONE, Quaternion
from hurwitzq.scalars import QuadScalar


def element_order(q: Quaternion) -> int:
    power, n = q, 1
    while power != ONE:
        power, n = power * q, n + 1
    return n


def brute_force_normal_subgroups(group: QGroup) -> set:
    """Enumerate subgroups from generator pairs, keep the normal ones.

    Works in index space over the Cayley table (validated elsewhere
    against direct multiplication).  Every subgroup of these groups is
    generated by at most two elements, so closing all generator pairs
    reaches the complete subgroup lattice.
    """
    table = group.cayley_table()
    order = group.order

    def close(generators: "tuple[int, int]") -> frozenset:
        members = {group.identity_index, *generators}
        while True:
            extra = {table[a][b] for a in members for b in members} - members
            if not extra:
                return frozenset(members)
            members |= extra

    subgroups = {close((i, j)) for i in range(order) for j in range(i, order)}
    inverse = [group.inverse_index(i) for i in range(order)]
    normal = set()
    for sub in subgroups:
        if all(
            table[table[g][m]][inverse[g]] in sub for g in range(order) for m in sub
        ):
            normal.add(frozenset(str(group.element(i)) for i in sub))
    return normal


class TestConstruction:
    def test_orders(self):
        assert group_q8().order == 8
        assert group_q24().order == 24
        assert group_q48().order == 48
        assert group_q120().order == 120

    def test_fields(self):
        assert group_q8().d == 1
        assert group_q24().d == 1
        assert group_q48().d == 2
        assert group_q120().d == 5

    def test_q8_is_the_hamilton_units(self):
        expected = {ONE, -ONE, I, -I, J, -J, K, -K}
        assert set(group_q8().elements) == expected

    def test_q24_is_the_hurwitz_units(self):
        from hurwitzq.lattices import hurwitz_units

        assert set(group_q24().elements) == {atom.value for atom in hurwitz_units()}

    def test_q48_splits_into_hurwitz_and_coset(self):
        q24 = set(group_q24().elements)
        q48 = set(group_q48().elements)
        assert q24 < q48
        coset = q48 - q24
        assert len(coset) == 24
        for q in coset:
            assert q.norm().to_fraction() == 1
            assert q.d == 2

    def test_q120_contains_the_hurwitz_units(self):
        q120 = set(group_q120().elements)
        assert set(group_q24().elements) < q120
        assert all(q.norm().to_fraction() == 1 for q in q120)

    def test_elements_are_sorted_and_deduplicated(self):
        group = group_q8()
        strs = [str(e) for e in group.elements]
        assert strs == sorted(strs)
        assert len(set(strs)) == group.order

    def test_named_groups(self):
        assert group_names() == ("q8", "q24", "q48", "q120")
        assert named_group("q120") is group_q120()
        with pytest.raises(KeyError):
            named_group("q16")

    def test_rejects_non_unit_elements(self):
        with pytest.raises(GroupConstructionError):
            QGroup([ONE, Quaternion(2, 0, 0, 0)])

    def test_rejects_non_closed_sets(self):
        # {1, -1, i} lacks -i, the inverse of i; that check comes first.
        with pytest.raises(GroupConstructionError) as excinfo:
            QGroup([ONE, -ONE, I])
        assert str(excinfo.value) == "inverse of (0, 1, 0, 0) is missing"
        with pytest.raises(GroupConstructionError) as excinfo:
            QGroup([ONE, -ONE, I, -I, J, -J])
        assert str(excinfo.value) == "not closed: (0, -1, 0, 0) * (0, 0, -1, 0) = (0, 0, 0, 1) is missing"

    def test_rejects_non_closed_icosian_set(self):
        # q of order 10 in Q120: q * q is neither 1, q nor conj(q).
        q = next(e for e in group_q120().elements if element_order(e) == 10)
        assert str(q) == "(1/4+1/4*sqrt(5), -1/2, -1/4+1/4*sqrt(5), 0)"
        with pytest.raises(GroupConstructionError) as excinfo:
            QGroup([ONE, q, q.conjugate()])
        assert str(excinfo.value) == (
            f"not closed: {q} * {q} = (-1/4+1/4*sqrt(5), -1/4-1/4*sqrt(5), 1/2, 0) is missing"
        )

    def test_rejects_missing_identity(self):
        with pytest.raises(GroupConstructionError):
            QGroup([I, -I, -ONE])


class TestClosure:
    def test_hamilton_generators(self):
        assert closure([I, J]).order == 8

    def test_hurwitz_generators(self):
        assert closure([unit_named("h1").value, I]).order == 24

    def test_single_generator(self):
        assert closure([I]).order == 4
        assert closure([ONE]).order == 1
        assert closure([unit_named("h1").value]).order == 6

    def test_cap_exceeded(self):
        with pytest.raises(ClosureCapError):
            closure([unit_named("h1").value, I], cap=10)


class TestCayleyTable:
    def test_latin_square_property(self):
        for group in (group_q8(), group_q24(), group_q48(), group_q120()):
            assert group.is_latin_square()

    def test_table_matches_direct_multiplication(self):
        # The sqrt(2) Q16 = <(1+i)/sqrt(2), j> mixes rational and surd entries.
        q16 = closure([(ONE + I) * QuadScalar(0, Fraction(1, 2), 2), J])
        assert (q16.order, q16.d) == (16, 2)
        for group in (group_q8(), group_q24(), group_q48(), group_q120(), q16):
            elements = group.elements
            table = group.cayley_table()
            for i, a in enumerate(elements):
                assert table[i] == tuple(group.index_of(a * b) for b in elements)

    def test_identity_row_and_column(self):
        group = group_q48()
        e = group.identity_index
        for i in range(group.order):
            assert group.product_index(e, i) == i
            assert group.product_index(i, e) == i

    def test_inverse_index(self):
        group = group_q120()
        e = group.identity_index
        for i in range(group.order):
            assert group.product_index(i, group.inverse_index(i)) == e

    def test_index_of(self):
        group = group_q8()
        for i in range(group.order):
            assert group.index_of(group.element(i)) == i
        with pytest.raises(KeyError):
            group.index_of(Quaternion(2, 0, 0, 0))


class TestConjugacyClasses:
    def test_q8_class_sizes(self):
        sizes = sorted(len(c) for c in group_q8().conjugacy_classes())
        assert sizes == [1, 1, 2, 2, 2]

    def test_q24_class_sizes(self):
        sizes = sorted(len(c) for c in group_q24().conjugacy_classes())
        assert sizes == [1, 1, 4, 4, 4, 4, 6]

    def test_q120_class_sizes(self):
        sizes = sorted(len(c) for c in group_q120().conjugacy_classes())
        assert sizes == [1, 1, 12, 12, 12, 12, 20, 20, 30]

    def test_classes_partition_the_group(self):
        for group in (group_q8(), group_q48()):
            indices = [i for cls in group.conjugacy_classes() for i in cls]
            assert sorted(indices) == list(range(group.order))

    def test_classes_are_closed_under_conjugation(self):
        group = group_q24()
        for cls in group.conjugacy_classes():
            members = {group.element(i) for i in cls}
            for g in group.elements:
                for n in members:
                    assert g * n * g.inverse() in members


class TestSubgroups:
    def test_is_subgroup(self):
        assert is_subgroup(group_q8(), group_q24())
        assert is_subgroup(group_q8(), group_q48())
        assert is_subgroup(group_q24(), group_q48())
        assert is_subgroup(group_q8(), group_q120())
        assert is_subgroup(group_q24(), group_q120())
        assert not is_subgroup(group_q24(), group_q8())

    def test_rationals_embed_in_any_field_but_surds_do_not_mix(self):
        from hurwitzq.scalars import FieldMismatchError

        with pytest.raises(FieldMismatchError):
            is_subgroup(group_q48(), group_q120())

    def test_is_permutable(self):
        assert is_permutable(group_q8(), group_q24())
        assert is_permutable(group_q8(), group_q48())
        assert is_permutable(group_q24(), group_q48())
        assert not is_permutable(group_q8(), group_q120())
        assert not is_permutable(group_q24(), group_q120())

    def test_is_permutable_requires_a_subgroup(self):
        with pytest.raises(NotASubgroupError):
            is_permutable(group_q24(), group_q8())

    def test_q8_normal_subgroup_orders(self):
        assert [g.order for g in normal_subgroups(group_q8())] == [1, 2, 4, 4, 4, 8]

    def test_q24_normal_subgroup_orders(self):
        assert [g.order for g in normal_subgroups(group_q24())] == [1, 2, 8, 24]

    def test_q48_normal_subgroup_orders(self):
        assert [g.order for g in normal_subgroups(group_q48())] == [1, 2, 8, 24, 48]

    def test_q120_normal_subgroups(self):
        subs = normal_subgroups(group_q120())
        assert [g.order for g in subs] == [1, 2, 120]
        assert set(subs[0].elements) == {ONE}
        assert set(subs[1].elements) == {ONE, -ONE}
        assert subs[2] == group_q120()

    def test_normal_subgroups_match_brute_force_oracle(self):
        for group in (group_q8(), group_q24()):
            oracle = brute_force_normal_subgroups(group)
            computed = {
                frozenset(str(e) for e in sub.elements)
                for sub in normal_subgroups(group)
            }
            assert computed == oracle

    def test_normal_subgroups_are_genuinely_normal(self):
        group = group_q48()
        for sub in normal_subgroups(group):
            members = set(sub.elements)
            assert all(
                g * n * g.inverse() in members for g in group.elements for n in members
            )
