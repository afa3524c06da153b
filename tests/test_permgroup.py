import random

import pytest

from quandelier import permgroup
from quandelier.errors import BudgetExceeded
from conftest import cyclic_group, symmetric_group


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


def test_group_index_and_mul_idx():
    group = symmetric_group(3)
    for i in range(group.order):
        for j in range(group.order):
            expect = permgroup.mul(group.elements[i], group.elements[j])
            assert group.elements[group.mul_idx(i, j)] == expect


def test_orbits_of_a_cycle():
    group = permgroup.closure([(1, 2, 0, 3, 4), (0, 1, 2, 4, 3)])
    assert permgroup.orbits(group) == [(0, 1, 2), (3, 4)]


def test_orbits_sorted_by_minimum():
    group = permgroup.closure([(0, 1, 3, 2)])
    assert permgroup.orbits(group) == [(0,), (1,), (2, 3)]


def test_subgroups_of_prime_cyclic():
    # a cyclic group of prime order has exactly two subgroups
    for p in (2, 3, 5, 7):
        assert len(permgroup.subgroups(cyclic_group(p))) == 2


def test_subgroups_of_s3():
    # S3: trivial, three of order 2, one of order 3, S3 itself
    subs = permgroup.subgroups(symmetric_group(3))
    assert sorted(s.order for s in subs) == [1, 2, 2, 2, 3, 6]


def test_subgroups_of_klein_four():
    group = permgroup.closure([(1, 0, 3, 2), (2, 3, 0, 1)])
    subs = permgroup.subgroups(group)
    assert sorted(s.order for s in subs) == [1, 2, 2, 2, 4]


def test_subgroups_are_closed():
    for group in (symmetric_group(3), cyclic_group(6)):
        for sub in permgroup.subgroups(group):
            members = set(sub.elements)
            for a in sub.elements:
                assert permgroup.inverse(a) in members
                for b in sub.elements:
                    assert permgroup.mul(a, b) in members


def test_subgroups_budget():
    with pytest.raises(BudgetExceeded):
        permgroup.subgroups(symmetric_group(4), budget=10)
