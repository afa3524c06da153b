"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -v/-s or in the
captured output on failure) after running its checks exactly as stated.
"""

import time
from contextlib import contextmanager
from math import gcd

import pytest

from quandelier import (cohomology as coh, fpgroup, fundamental as fund,
                        permgroup, quandle as qmod)
from quandelier.errors import BudgetExceeded, InfiniteGroup
from conftest import transposition_quandle
from oracles import (cohomology_classes, count_homs_to_abelian,
                     left_translations, path_complex_h2)

Z2 = coh.Coeff.from_invariants([2])
Z3 = coh.Coeff.from_invariants([3])
Z4 = coh.Coeff.from_invariants([4])


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


def test_criterion_1_odd_dihedral_simply_connected():
    with criterion(1, "odd dihedral quandles are simply connected"):
        for n in (3, 5, 7, 9):
            start = time.monotonic()
            quandle = qmod.dihedral(n)
            fg = fund.fundamental_group(quandle, 0)
            # both pipelines: the stabilizer model and the presentation
            assert len(fg.cayley) == 1
            assert fpgroup.todd_coxeter(fg.presentation, []).coset_count == 1
            cover = fund.universal_cover(quandle)
            assert cover.cover.n == n
            coverings = fund.enumerate_connected_coverings(quandle, 0)
            assert len(coverings) == 1
            assert time.monotonic() - start < 1.0


def test_criterion_2_symmetric_group_quandles():
    with criterion(2, "transposition quandles of S4 and S5"):
        start = time.monotonic()

        q4 = transposition_quandle(4)
        assert q4.n == 6
        table, _ = fund.adj0_enumeration(q4, 0)
        assert table.coset_count == 12
        fg = fund.fundamental_group(q4, 0)
        assert fg.order == 2
        (h2,) = coh.h2_integral(q4)
        assert h2 == fpgroup.AbelianInvariants(free_rank=0, torsion=(2,))
        ((_, classes),) = coh.h2_with_coefficients(q4, Z2)
        assert classes == 2
        assert len(fund.enumerate_connected_coverings(q4, 0)) == 2

        q5 = transposition_quandle(5)
        assert q5.n == 10
        table, _ = fund.adj0_enumeration(q5, 0)
        assert table.coset_count == 60
        fg = fund.fundamental_group(q5, 0)
        assert fg.order == 6
        inv = fg.abelian_invariants()
        assert (inv.free_rank, inv.torsion) == (0, (2,))
        (h2,) = coh.h2_integral(q5)
        assert h2 == fpgroup.AbelianInvariants(free_rank=0, torsion=(2,))
        assert len(fund.enumerate_connected_coverings(q5, 0)) == 6

        assert time.monotonic() - start < 5.0


def test_criterion_3_q_mn_family():
    with criterion(3, "two-block quandles Q_{m,n}"):
        for m, n in ((1, 1), (3, 2), (2, 2)):
            quandle = qmod.q_mn(m, n)
            ell = gcd(m, n)
            want = fpgroup.AbelianInvariants(
                free_rank=1, torsion=(ell,) if ell > 1 else ())
            for q in quandle.basepoints:
                fg = fund.fundamental_group(quandle, q, budget=3000)
                assert fg.abelian_invariants() == want
            for inv in coh.h2_integral(quandle):
                assert inv == want
            with pytest.raises(BudgetExceeded):
                fund.adj0_enumeration(quandle, 0, budget=3000)


def test_criterion_4_hurewicz_agreement(corpus):
    with criterion(4, "integral H2 equals abelianized pi1 per component"):
        for name, quandle in corpus:
            # abelianised pi_1 against the path complex's own homology
            assert coh.h2_integral(quandle) == path_complex_h2(
                quandle.op, quandle.grading), name


def test_criterion_5_trilogy(corpus):
    with criterion(5, "classes = homs = inequivalent extensions"):
        # the stated concrete instance first
        d3 = qmod.dihedral(3)
        reps, cocycles = cohomology_classes(d3, Z2)
        triv = coh.trivial_cocycle(d3, Z2)
        coboundaries = {f for f in cocycles
                        if coh.are_cohomologous(f, triv, d3, Z2)}
        assert len(cocycles) == 4
        assert len(coboundaries) == 4
        assert len(reps) == 1

        checked = 0
        for name, quandle in corpus:
            if not quandle.is_connected():
                continue
            try:
                fg = fund.fundamental_group(quandle, 0, budget=3000)
            except BudgetExceeded:
                continue
            if fg.order is None:
                continue
            for lam in (Z2, Z3, Z4):
                if lam.order ** (quandle.n * quandle.n - quandle.n) > 1 << 14:
                    continue
                reps, cocycles = cohomology_classes(quandle, lam)
                homs = count_homs_to_abelian(
                    fg.abelian_invariants(),
                    fpgroup.AbelianInvariants(0, lam.invariants))
                assert len(reps) == homs, (name, lam.invariants)
                # brute-force |Z2|/|B2| with B2 counted explicitly
                from itertools import product
                boundaries = {coh.coboundary(quandle, lam, g)
                              for g in product(range(lam.order),
                                               repeat=quandle.n)}
                assert len(cocycles) == homs * len(boundaries), name
                exts = [coh.extension_from_cocycle(quandle, lam, f)
                        for f in reps]
                for i in range(len(exts)):
                    for j in range(i + 1, len(exts)):
                        assert coh.are_equivalent_extensions(
                            exts[i], exts[j]) is None, name
                checked += 1
        assert checked >= 3


def test_criterion_6_covering_composition_failure():
    with criterion(6, "coverings do not compose"):
        d8, d4, d2 = qmod.dihedral(8), qmod.dihedral(4), qmod.dihedral(2)
        p84 = qmod.QuandleHom(d8, d4, tuple(a % 4 for a in range(8)))
        p42 = qmod.QuandleHom(d4, d2, tuple(a % 2 for a in range(4)))
        assert qmod.is_covering(p84)[0]
        assert qmod.is_covering(p42)[0]
        composite = qmod.compose_homs(p84, p42)
        ok, witness = qmod.is_covering(composite)
        assert not ok
        a, x, y = witness
        assert composite.map[x] == composite.map[y]
        assert d8.op[a][x] != d8.op[a][y]


def test_criterion_7_roundtrips():
    with criterion(7, "cocycle and hom roundtrips through extensions"):
        quandle = transposition_quandle(4)
        order = fund.universal_cover(quandle).pi1.order
        # all homs pi_1 -> Z2: pi_1 = Z2, so exactly two
        all_homs = []
        for image in range(2):
            hom = [0 if k == 0 else image for k in range(order)]
            all_homs.append(hom)
        assert len(all_homs) == 2
        for hom in all_homs:
            f = coh.cocycle_from_hom(quandle, Z2, hom)
            ext = coh.extension_from_cocycle(quandle, Z2, f)
            back = coh.cocycle_from_extension(ext)
            assert coh.are_cohomologous(f, back, quandle, Z2) is not None
            assert coh.hom_from_extension(ext) == hom


def test_criterion_8_universal_cover_axioms(corpus):
    with criterion(8, "universal cover structure over the corpus"):
        built = 0
        for name, quandle in corpus:
            if not quandle.is_connected():
                # infinite degree-zero part, certified without enumerating
                with pytest.raises(InfiniteGroup):
                    fund.universal_cover(quandle, budget=20000)
                continue
            cover = fund.universal_cover(quandle, budget=20000)
            built += 1
            assert qmod.is_covering(cover.projection)[0], name
            # components of the cover biject with components of the base
            parts, _ = qmod.components(cover.cover)
            assert len(parts) == 1, name
            # pi_1 from the left on the pairs (a, g), a permutation each
            deck = left_translations(cover.pi1.cayley, quandle.n)
            fibre = cover.projection.fibre(quandle.basepoints[0])
            # free and transitive on the basepoint fibre
            assert len(fibre) == deck.order, name
            ident = deck.elements[deck.identity_index]
            for g in deck.elements:
                hit = {g[x] for x in fibre}
                assert hit == set(fibre), name
                if g != ident:
                    assert all(g[x] != x for x in fibre), name
            # deck transformations commute with right translations
            op = cover.cover.op
            for g in deck.elements:
                for x in fibre:
                    for b in range(cover.cover.n):
                        assert g[op[x][b]] == op[g[x]][b], name
        assert built >= 10
