import random

import pytest

from quandelier import permgroup
from quandelier.errors import BudgetExceeded
from conftest import (cayley_table, cyclic_group, right_translations,
                      symmetric_group)
from oracles import orbits


def test_mul_is_left_to_right():
    # p sends 0->1, q sends 1->2, so p then q sends 0->2
    p = (1, 0, 2)
    q = (0, 2, 1)
    assert permgroup.mul(p, q) == (2, 0, 1)


def test_inverse():
    rng = random.Random(7)
    for _ in range(20):
        p = list(range(6))
        rng.shuffle(p)
        p = tuple(p)
        assert permgroup.mul(p, permgroup.inverse(p)) == tuple(range(6))


def test_closure_transposition_is_order_two():
    group = permgroup.closure([(1, 0)])
    assert group.order == 2


def test_closure_symmetric_and_cyclic_orders():
    assert symmetric_group(4).order == 24
    assert symmetric_group(5).order == 120
    assert cyclic_group(6).order == 6


def test_closure_contains_identity_first():
    group = symmetric_group(3)
    assert group.elements[0] == (0, 1, 2)
    assert group.identity_index == 0


def test_closure_idempotent():
    group = symmetric_group(3)
    again = permgroup.closure(group.elements, degree=3)
    assert sorted(again.elements) == sorted(group.elements)


def test_closure_budget():
    with pytest.raises(BudgetExceeded):
        permgroup.closure(symmetric_group(5).generators, budget=10)


def test_cayley_table_indexes_products():
    group = symmetric_group(3)
    table = cayley_table(group)
    for i in range(group.order):
        for j in range(group.order):
            expect = permgroup.mul(group.elements[i], group.elements[j])
            assert group.elements[table[i][j]] == expect


def test_orbits_of_a_cycle():
    group = permgroup.closure([(1, 2, 0, 3, 4), (0, 1, 2, 4, 3)])
    assert orbits(group) == [(0, 1, 2), (3, 4)]


def test_orbits_sorted_by_minimum():
    group = permgroup.closure([(0, 1, 3, 2)])
    assert orbits(group) == [(0,), (1,), (2, 3)]


def test_subgroups_of_prime_cyclic():
    # a cyclic group of prime order has exactly two subgroups
    for p in (2, 3, 5, 7):
        subs = permgroup.subgroups(right_translations(cyclic_group(p)), p)
        assert [size for _, size in subs] == [1, 1]


def test_subgroups_of_s3():
    # S3: trivial, three of order 2, one of order 3, S3 itself
    subs, sizes = zip(*permgroup.subgroups(
        right_translations(symmetric_group(3)), 100))
    assert [len(s) for s in subs] == [1, 2, 2, 2, 3, 6]
    # the three of order 2 are conjugate, the others normal
    assert sizes == (1, 3, 3, 3, 1, 1)
    assert subs[0] == (0,) and subs[-1] == tuple(range(6))


def test_subgroups_of_klein_four():
    group = permgroup.closure([(1, 0, 3, 2), (2, 3, 0, 1)])
    subs = permgroup.subgroups(right_translations(group), 100)
    assert sorted(len(s) for s, _ in subs) == [1, 2, 2, 2, 4]
    assert {size for _, size in subs} == {1}


def test_subgroups_are_closed():
    for group in (symmetric_group(3), cyclic_group(6)):
        right = right_translations(group)
        for sub, _ in permgroup.subgroups(right, 100):
            members = set(sub)
            assert list(sub) == sorted(members)
            for a in sub:
                assert right[a].index(0) in members
                for b in sub:
                    assert right[b][a] in members


def test_subgroups_budget_counts_closures(monkeypatch):
    # the budget bounds the closures tried, one _close call each: S4's
    # 30 subgroups take 51, and at 50 the 51st raises
    right = right_translations(symmetric_group(4))
    calls, close = [], permgroup._close
    monkeypatch.setattr(permgroup, "_close",
                        lambda *args: calls.append(args) or close(*args))
    subs = permgroup.subgroups(right, 1000)
    monkeypatch.undo()
    assert (len(subs), len(calls)) == (30, 51)
    assert permgroup.subgroups(right, 51) == subs
    with pytest.raises(BudgetExceeded) as info:
        permgroup.subgroups(right, 50)
    assert (info.value.reached, info.value.what) == (51, "subgroup search")
    # it does not bound the order: C7 needs 6 closures, from 1 to
    # each of its generators
    assert len(permgroup.subgroups(right_translations(cyclic_group(7)),
                                   6)) == 2
