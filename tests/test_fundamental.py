import hashlib
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from quandelier import (cli, cohomology as coh, fpgroup, fundamental as fund,
                        permgroup, quandle as qmod)
from quandelier.errors import BudgetExceeded, InfiniteGroup
from conftest import (symmetric_group, transposition_quandle,
                      transpositions_on_pairs)
from oracles import (adjusted_deck_perm, census_by_orbits,
                     cocycle_violation, complex_cells_in_adjoint_order,
                     deck_group, full_adjoint_presentation,
                     generated_subquandle, is_normal, left_translations,
                     lift_cells, lifted_cells, path_complex_cells,
                     quotient_by_right_cosets, reidemeister_schreier,
                     relator_classes, right_cosets,
                     right_action_on_cover, simplify_reference,
                     standard_form, subgroups as oracle_subgroups,
                     todd_coxeter_reference, trace,
                     universal_cover_by_columns)


def _plain(pres):
    """The presentation alone, without what pi1_presentation adds."""
    return fpgroup.Presentation(pres.generator_count, pres.relators)


# ---------------------------------------------------------------------------
# the 2-complex on the generating set, and the full path complex


def test_complex_counts():
    quandle = qmod.dihedral(3)
    assert len(quandle.generators) == 2
    # the full complex: 3 loops and 27 squares
    assert len(path_complex_cells(quandle.op)) == 3 + 27
    # the complex on S: the 3 relators of the adjoint presentation
    # lifted at each of the 3 vertices, plus one loop per vertex, as
    # they are read
    assert len(quandle.adjoint.relators) == 3
    step, cells = fund.build_complex(quandle, range(3))
    assert len(tuple(cells)) == 3 * 3 + 3
    assert len(lifted_cells(quandle, range(3))) == 3 * 3 + 3



def test_the_adjoint_presentation_is_built_once_per_quandle(monkeypatch):
    # the quandles are built here, so that no earlier test has cached
    # their presentation: one build serves every component's pi_1 and
    # both pipelines of fundamental_group
    calls = []
    build = fpgroup.adjoint_presentation

    def counted(quandle, gens):
        calls.append(quandle)
        return build(quandle, gens)

    monkeypatch.setattr(fpgroup, "adjoint_presentation", counted)
    trivial = qmod.trivial(30)
    assert len(coh.h2_integral(trivial)) == 30
    assert calls == [trivial]
    calls.clear()
    dihedral = qmod.dihedral(91)
    assert fund.fundamental_group(dihedral, 0).order == 1
    assert calls == [dihedral]


def _edge_ends(quandle, width, column):
    """Edge e runs from e // width to (e // width) * column[e % width]."""
    def ends(e):
        return e // width, quandle.op[e // width][column[e % width]]
    return ends


def test_build_complex_yields_every_cell_once_shortest_first(corpus):
    # lifted through build_complex's step table, the same cells as the
    # lift in the adjoint presentation's order, read in order of length
    for name, quandle in corpus:
        if not quandle.is_connected():
            continue
        vertices = range(quandle.n)
        cells = lifted_cells(quandle, vertices)
        assert sorted(cells) == sorted(
            complex_cells_in_adjoint_order(
                quandle, vertices, quandle.adjoint.generators)), name
        assert all(len(a) <= len(b) for a, b in zip(cells, cells[1:])), name


def test_cell_boundaries_are_closed_loops():
    # each 2-cell boundary word traces back to its starting vertex; in
    # the full complex edge e is (e // n, e % n), on S it is
    # (e // |S|, S[e % |S|])
    for quandle in (qmod.dihedral(5), transposition_quandle(4)):
        n, gens = quandle.n, quandle.generators
        for cells, ends in (
                (path_complex_cells(quandle.op),
                 _edge_ends(quandle, n, range(n))),
                (lifted_cells(quandle, range(n)),
                 _edge_ends(quandle, len(gens), gens))):
            for word in cells:
                src, tgt = ends(abs(word[0]) - 1)
                start = at = src if word[0] > 0 else tgt
                for signed in word:
                    src, tgt = ends(abs(signed) - 1)
                    if signed > 0:
                        assert src == at
                        at = tgt
                    else:
                        assert tgt == at
                        at = src
                assert at == start


def test_pi1_presentation_has_one_generator_per_non_tree_edge(corpus):
    # the Schreier graph of a component C has |C||S| edges and a
    # spanning tree of |C| - 1 of them, on the adjoint's set S and on
    # validate's
    for name, quandle in corpus:
        parts, index = qmod.components(quandle)
        for gens in (quandle.adjoint.generators, quandle.generators):
            for b in range(quandle.n):
                size = len(parts[index[b]])
                assert (reidemeister_schreier(quandle, b, gens)
                        .generator_count == size * len(gens) - (size - 1)), (
                            name, gens)
    d91 = qmod.dihedral(91)
    assert reidemeister_schreier(d91, 0, d91.generators).generator_count == 92


# ---------------------------------------------------------------------------
# presentations and enumerations; oracles are classical group orders


def test_pi1_presentation_of_odd_dihedral_is_trivial():
    # the Tietze moves kill every generator of the rewrite
    for n in (3, 5, 7, 9):
        quandle = qmod.dihedral(n)
        assert _plain(fund.pi1_presentation(quandle, 0)) == (
            fpgroup.Presentation(generator_count=0, relators=()))
        table = fpgroup.todd_coxeter(
            reidemeister_schreier(quandle, 0, quandle.generators))
        assert table.coset_count == 1


def test_adj0_enumeration_sizes():
    # degree-zero adjoint subgroups: Z_n for dihedral(n) odd, A_n for
    # the transposition quandle of S_n
    for n in (3, 5, 7):
        table, ends = fund.adj0_enumeration(qmod.dihedral(n), 0)
        assert table.coset_count == n
    table, ends = fund.adj0_enumeration(transposition_quandle(4), 0)
    assert table.coset_count == 12
    table, ends = fund.adj0_enumeration(transposition_quandle(5), 0)
    assert table.coset_count == 60


def test_adj0_enumeration_infinite_is_budgeted():
    with pytest.raises(BudgetExceeded):
        fund.adj0_enumeration(qmod.q_mn(2, 2), 0, budget=3000)
    with pytest.raises(BudgetExceeded):
        fund.adj0_enumeration(qmod.trivial(2), 0, budget=3000)


def test_disconnected_is_certified_without_enumerating(monkeypatch):
    # Adj(Q)^ab = Z^k, so k >= 2 components make the cosets infinite;
    # no budget is large enough and none is spent
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumeration started on a certified input")

    monkeypatch.setattr(fpgroup, "todd_coxeter", no_enumeration)
    monkeypatch.setattr(fpgroup, "adjoint_presentation", no_enumeration)
    for quandle, k in ((qmod.trivial(2), 2), (qmod.q_mn(2, 2), 2),
                       (qmod.dihedral(4), 2)):
        for q in range(quandle.n):
            with pytest.raises(InfiniteGroup) as info:
                fund.adj0_enumeration(quandle, q, budget=10**9)
            assert info.value.components == k
            assert f"{k} connected components" in str(info.value)


def test_certificate_counts_orbits_not_grading_classes():
    # the trivial Z2 extension of dihedral(3) is two copies of it; the
    # grading pulled back from the base has one class
    z2 = coh.Coeff.from_invariants([2])
    base = qmod.dihedral(3)
    total = coh.extension_from_cocycle(
        base, z2, coh.trivial_cocycle(base, z2)).total
    assert total.component_count == 1
    assert len(qmod.components(total)[0]) == 2
    with pytest.raises(InfiniteGroup):
        fund.adj0_enumeration(total, total.basepoints[0], budget=10**9)


def test_pi1_presentation_builds_only_its_component(monkeypatch):
    # h2_integral reads one presentation per component; each builds the
    # cells of its own component, so every cell is built once
    built, calls = [], []
    build = fund.build_complex

    def recording(quandle, vertices):
        step, cells = build(quandle, vertices)
        cells = tuple(cells)
        calls.append(list(vertices))
        built.extend(lift_cells(step, cells))
        return step, cells

    monkeypatch.setattr(fund, "build_complex", recording)
    quandle = qmod.trivial(30)
    h2 = coh.h2_integral(quandle)
    assert len(h2) == 30
    assert calls == [[a] for a in range(quandle.n)]
    # every cell starts at its own call's vertex: edge e leaves e // |S|
    m = len(quandle.generators)
    ends = _edge_ends(quandle, m, quandle.generators)
    starts = [ends(abs(w[0]) - 1)[0 if w[0] > 0 else 1] for w in built]
    per_vertex = len(quandle.adjoint.relators) + 1
    assert starts == [a for a in range(quandle.n) for _ in range(per_vertex)]
    assert sorted(built) == sorted(lift_cells(*build(quandle,
                                                    range(quandle.n))))


def test_pi1_presentation_stays_in_the_basepoint_orbit():
    # one grading class holding two copies of dihedral(3): pi_1 at a
    # point, and so H2, sees only the point's own copy
    z2 = coh.Coeff.from_invariants([2])
    base = qmod.dihedral(3)
    total = coh.extension_from_cocycle(
        base, z2, coh.trivial_cocycle(base, z2)).total
    regraded = qmod.validate(total.op)
    assert (total.component_count, regraded.component_count) == (1, 2)
    for q in range(total.n):
        assert (fund.pi1_presentation(total, q)
                == fund.pi1_presentation(regraded, q))
    q = total.basepoints[0]
    assert coh.h2_integral(total) == [
        coh.h2_integral(regraded)[regraded.grading[q]]]


def test_corpus_pi1_pipelines_agree(corpus):
    # the certificate fires exactly on the disconnected quandles; on
    # the connected ones pi_1's own enumeration has 1/n of the cosets
    # of Adj(Q) modulo <e_q>, enumerated by the reference kernel on the
    # full adjoint presentation
    connected = 0
    for name, quandle in corpus:
        q = quandle.basepoints[0]
        if len(qmod.components(quandle)[0]) > 1:
            with pytest.raises(InfiniteGroup):
                fund.adj0_enumeration(quandle, q)
            assert fund.fundamental_group(quandle, q).order is None, name
            continue
        connected += 1
        fg = fund.fundamental_group(quandle, q, budget=20000)
        index = todd_coxeter_reference(full_adjoint_presentation(quandle),
                                       [(q + 1,)], budget=20000).coset_count
        assert fg.order * quandle.n == index, name
    assert connected >= 30


def test_simplify_keeps_pi1(corpus):
    # on every basepoint's rewrite: the same abelianisation; on the
    # connected quandles the same order, and every relator of the
    # rewrite, carried over by the images, is trivial in the result
    inputs = corpus + [(f"conj(S{m},transposition)", transposition_quandle(m))
                       for m in (5, 6)]
    for name, quandle in inputs:
        connected = quandle.is_connected()
        for q in quandle.basepoints:
            rewrite = reidemeister_schreier(quandle, q,
                                            quandle.adjoint.generators)
            pres, images = fpgroup.simplify(rewrite.generator_count,
                                            rewrite.relators)
            assert len(images) == rewrite.generator_count, name
            assert (fpgroup.abelian_invariants(pres)
                    == fpgroup.abelian_invariants(rewrite)), name
            if not connected:
                continue
            table = fpgroup.todd_coxeter(pres, [], budget=20000)
            assert table.coset_count == fpgroup.todd_coxeter(
                rewrite, [], budget=20000).coset_count, name
            for r in rewrite.relators:
                word = [images[abs(x) - 1] * (1 if x > 0 else -1) for x in r]
                assert trace(table, 0, filter(None, word)) == 0, name


def test_pi1_presentation_is_the_simplified_rewrite(corpus):
    # lifting and Tietze moves in one pass give the simplified
    # Reidemeister-Schreier rewrite exactly: pi_1's coset peak, and so
    # the pi1 budget, depends on the presentation
    inputs = [(name, quandle, range(quandle.n)) for name, quandle in corpus]
    inputs += [(f"conj(S{m},transposition)", transposition_quandle(m), (0,))
               for m in (5, 6, 7)]
    inputs.append(("conj(S5,3-cycle)",
                   qmod.conj_class(symmetric_group(5), (1, 2, 0, 3, 4)),
                   (0,)))
    inputs += [(f"dihedral({n})", qmod.dihedral(n), (0,))
               for n in (15, 21, 31, 45, 91)]
    for name, quandle, basepoints in inputs:
        for q in basepoints:
            rewrite = reidemeister_schreier(quandle, q,
                                            quandle.adjoint.generators)
            assert _plain(fund.pi1_presentation(quandle, q)) == (
                fpgroup.simplify(rewrite.generator_count,
                                 rewrite.relators)[0]), (name, q)


def test_relator_classes_of_simplify_are_the_reference(corpus):
    # at 166 basepoints, simplify's survivors, one per rotation class,
    # are exactly what simplify gave when it built the classes itself,
    # images included; the raw survivors have the abelianisation of
    # their classes, and fundamental_group keeps pi1_presentation as it
    # is, with its images and paths
    inputs = [(name, quandle, quandle.basepoints) for name, quandle in corpus]
    inputs += [(f"conj(S{m},transposition)", transposition_quandle(m), (0,))
               for m in (5, 6, 7)]
    inputs.append(("conj(S5,3-cycle)", _three_cycles(5), (0,)))
    inputs += [(f"dihedral({n})", qmod.dihedral(n), (0,))
               for n in (15, 21, 31, 45, 91)]
    checked = 0
    for name, quandle, basepoints in inputs:
        for q in basepoints:
            rewrite = reidemeister_schreier(quandle, q,
                                            quandle.adjoint.generators)
            pres, images = fpgroup.simplify(rewrite.generator_count,
                                            rewrite.relators)
            classes = relator_classes(pres)
            assert (classes, images) == simplify_reference(
                rewrite.generator_count, rewrite.relators), (name, q)
            assert (fpgroup.abelian_invariants(pres)
                    == fpgroup.abelian_invariants(classes)), (name, q)
            fg = fund.fundamental_group(quandle, q, budget=1)
            assert fg.presentation == fund.pi1_presentation(
                quandle, q), (name, q)
            checked += 1
    assert checked == 166


def test_pi1_presentation_checks_its_letters_once(monkeypatch):
    # simplify's Presentation is checked; the Pi1Presentation built
    # from it, and the rotation classes fundamental_group enumerates,
    # are not checked again
    checked = []
    check = fpgroup.Presentation.__post_init__

    def counting(self):
        checked.append(type(self))
        check(self)

    quandle = transposition_quandle(5)
    quandle.adjoint  # checked once per quandle, when first built
    monkeypatch.setattr(fpgroup.Presentation, "__post_init__", counting)
    assert len(coh.h2_integral(quandle)) == 1
    assert checked == [fpgroup.Presentation]
    checked.clear()
    fg = fund.fundamental_group(quandle, 0, budget=1)
    assert fg.order is None
    # simplify's only: the prefix round, on the first 20 of the 27
    # classes, and the last round read the checked classes as they are
    assert (len(relator_classes(fg.presentation).relators),
            checked) == (27, [fpgroup.Presentation])


def _three_cycles(m):
    """The conjugation quandle on the 3-cycles of S_m."""
    return qmod.conj_class(symmetric_group(m),
                           (1, 2, 0) + tuple(range(3, m)))


def test_adjoint_generators_are_no_larger_than_validates(corpus):
    # the closure search's set generates Q and never has more elements
    # than validate's greedy set, which it keeps where that is minimal
    inputs = corpus + [(f"dihedral({n})", qmod.dihedral(n))
                       for n in (15, 21, 31, 45, 91)]
    inputs += [(f"conj(S{m},transposition)", transposition_quandle(m))
               for m in (6, 7)]
    inputs += [(f"conj(S{m},3-cycle)", _three_cycles(m)) for m in (5, 6, 7)]
    for name, quandle in inputs:
        gens = quandle.adjoint.generators
        assert generated_subquandle(quandle.op, quandle.inv_op, gens) == set(
            range(quandle.n)), name
        assert len(gens) <= len(quandle.generators), name
        if name.startswith("dihedral") or name.endswith(",transposition)"):
            assert gens == quandle.generators, name
    sizes = {name: (len(quandle.adjoint.generators), len(quandle.generators))
             for name, quandle in inputs}
    assert sizes["conj(S5,3-cycle)"] == (2, 4)
    assert sizes["conj(S7,3-cycle)"] == (3, 6)


def test_pi1_and_h2_do_not_depend_on_the_generating_set(corpus):
    # pi_1 from the adjoint's set against the oracle rewrite on
    # validate's: the same H2 at every basepoint, and on a connected
    # quandle the same order
    inputs = corpus + [(f"conj(S{m},3-cycle)", _three_cycles(m))
                       for m in (5, 6)]
    for name, quandle in inputs:
        for q in quandle.basepoints:
            fg = fund.fundamental_group(quandle, q, budget=20000)
            rewrite = reidemeister_schreier(quandle, q, quandle.generators)
            assert fg.abelian_invariants() == fpgroup.abelian_invariants(
                rewrite), (name, q)
            if quandle.is_connected():
                pres, _ = fpgroup.simplify(rewrite.generator_count,
                                           rewrite.relators)
                assert fg.order == fpgroup.todd_coxeter(
                    pres, [], budget=20000).coset_count, (name, q)


def test_pi1_and_h2_of_s7_three_cycles_are_pinned():
    # n = 70, on 3 generators where validate's set has 6: S7's 5040
    # elements fit permgroup.closure's budget
    quandle = _three_cycles(7)
    assert quandle.n == 70
    assert fund.fundamental_group(quandle, 0).order == 72
    assert coh.h2_integral(quandle) == [
        fpgroup.AbelianInvariants(free_rank=0, torsion=(3, 3))]


def test_pi1_presentation_stops_reading_once_no_generator_survives(
        monkeypatch):
    # cells are lifted as they are read, shortest first: on dihedral(45)
    # every generator is dead after 75 of its 45 + 45 * 45 cells, on
    # dihedral(91) after 144 of 91 + 91 * 91
    read = []
    build = fund.build_complex

    def counting(quandle, vertices):
        step, cells = build(quandle, vertices)

        def reading():
            for cell in cells:
                read.append(cell)
                yield cell
        return step, reading()

    monkeypatch.setattr(fund, "build_complex", counting)
    quandle = qmod.dihedral(45)
    assert _plain(fund.pi1_presentation(quandle, 0)) == fpgroup.Presentation(
        generator_count=0, relators=())
    assert len(quandle.adjoint.relators) == 45
    assert len(read) == 75
    read.clear()
    quandle = qmod.dihedral(91)
    assert _plain(fund.pi1_presentation(quandle, 0)) == fpgroup.Presentation(
        generator_count=0, relators=())
    assert len(quandle.adjoint.relators) == 91
    assert len(read) == 144
    # pi_1 of S7 is not trivial: every cell is read
    read.clear()
    quandle = transposition_quandle(7)
    assert fund.pi1_presentation(quandle, 0).generator_count == 10
    assert len(quandle.adjoint.relators) == 105
    assert len(read) == 21 + 105 * 21


def test_pi1_presentation_is_simplify_of_the_lifted_cells(
        corpus, monkeypatch):
    # lifting each cell through simplify's live substitution gives what
    # simplify gives on the same cells lifted first, with the same
    # killed edges: the tree of paths and the edges off the component
    killed = []
    fused = fpgroup.simplify_cells

    def spy(generator_count, step, cells, dead):
        killed.append(set(dead))
        return fused(generator_count, step, cells, dead)

    monkeypatch.setattr(fpgroup, "simplify_cells", spy)
    inputs = corpus + [(f"conj(S{m},transposition)", transposition_quandle(m))
                       for m in (5, 6, 7)]
    checked = 0
    for name, quandle in inputs:
        gens = quandle.adjoint.generators
        m = len(gens)
        for q in range(quandle.n):
            killed.clear()
            pres = fund.pi1_presentation(quandle, q)
            tree = {a * m + k + 1 for a, path in enumerate(pres.paths)
                    if path is None for k in range(m)}
            for a, path in enumerate(pres.paths):
                if path:  # its last letter crossed a tree edge into a
                    s = abs(path[-1]) - 1
                    start = quandle.rho_inv[s][a] if path[-1] > 0 else a
                    tree.add(start * m + gens.index(s) + 1)
                if path is not None:
                    at = q
                    for x in path:
                        at = (quandle.rho if x > 0 else quandle.rho_inv)[
                            abs(x) - 1][at]
                    assert at == a, (name, q, a)
            assert killed == [tree], (name, q)
            vertices = [a for a, path in enumerate(pres.paths)
                        if path is not None]
            assert (_plain(pres), pres.images) == fpgroup.simplify(
                quandle.n * m, lifted_cells(quandle, vertices), tree), (
                    name, q)
            checked += 1
    assert checked == 383


def test_pi1_coset_peak_is_pinned():
    # the smallest budget that gives pi_1's finite model: a change to
    # the presentation, to the rounds of relators it is enumerated on,
    # or to the columns the enumerator keeps, that moves the peak moves
    # what the pi1 budget admits (S6 and S7 close on a verified prefix
    # of their relators; each generator's square is a relator, so each
    # has one column)
    inputs = [(transposition_quandle(m), peak)
              for m, peak in ((5, 6), (6, 26), (7, 140))]
    # conj(S5, 3-cycles) on the adjoint's 2 generators: its 6 cosets
    # never exceed 6 live
    inputs.append((_three_cycles(5), 6))
    for quandle, peak in inputs:
        assert fund.fundamental_group(
            quandle, 0, budget=peak).order is not None, peak
        fg = fund.fundamental_group(quandle, 0, budget=peak - 1)
        assert fg.order is None, peak
        with pytest.raises(BudgetExceeded):
            fg.regular


def test_an_unenumerated_pi1_has_no_model():
    # regular, cayley and cocycle raise InfiniteGroup on a disconnected
    # quandle, todd_coxeter's BudgetExceeded otherwise
    for fg, error in ((fund.fundamental_group(qmod.trivial(2), 0),
                       InfiniteGroup),
                      (fund.fundamental_group(transposition_quandle(4), 0,
                                              budget=1), BudgetExceeded)):
        assert fg.order is None
        for name in ("regular", "cayley", "cocycle"):
            with pytest.raises(error) as info:
                getattr(fg, name)
            assert type(info.value) is error, name
    assert str(info.value) == "coset enumeration exceeded budget at size 1"


def test_pi1_is_computed_as_far_as_it_is_read(monkeypatch):
    # the presentation alone enumerates nothing; the covering consumers
    # read the model first, so a disconnected base builds no
    # presentation, and monodromy builds no Cayley table; past the
    # budget, regular raises todd_coxeter's own error
    enumerate_ = fpgroup.todd_coxeter

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(fpgroup, "todd_coxeter", no_enumeration)
    fg = fund.fundamental_group(transposition_quandle(5), 0)
    assert fg.presentation.generator_count == 3
    monkeypatch.setattr(fpgroup, "todd_coxeter", enumerate_)

    def no_presentation(*args, **kwargs):
        raise AssertionError("presentation built")

    quandle = qmod.trivial(2)
    monkeypatch.setattr(fund, "pi1_presentation", no_presentation)
    with pytest.raises(InfiniteGroup):
        fund.universal_cover(fund.fundamental_group(quandle, 0))
    with pytest.raises(InfiniteGroup):
        fund.monodromy(qmod.identity_hom(quandle),
                       fund.fundamental_group(quandle, 0))
    monkeypatch.undo()

    quandle = transposition_quandle(5)
    cover = fund.universal_cover(fund.fundamental_group(quandle, 0))
    pi1 = fund.fundamental_group(quandle, 0)
    fund.monodromy(cover.projection, pi1)
    assert pi1.order == 6 and "cayley" not in vars(pi1)

    fg = fund.fundamental_group(transposition_quandle(4), 0, budget=1)
    with pytest.raises(BudgetExceeded) as got:
        fg.regular
    with pytest.raises(BudgetExceeded) as want:
        fpgroup.todd_coxeter(fg.presentation, [], budget=1)
    assert str(got.value) == str(want.value)


def test_a_failed_pi1_enumeration_runs_once(monkeypatch):
    # at budget 139 every round on S7's transpositions runs out; order,
    # regular, cayley and cocycle then read the one failure, so the
    # rounds run once, not once per read, and the error is the same
    calls = []
    enumerate_ = fpgroup.todd_coxeter

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_(*args, **kwargs)

    monkeypatch.setattr(fpgroup, "todd_coxeter", counted)
    fg = fund.fundamental_group(transposition_quandle(7), 0, budget=139)
    assert fg.order is None
    errors = []
    for read in ("regular", "cayley", "cocycle", "regular"):
        with pytest.raises(BudgetExceeded) as got:
            getattr(fg, read)
        errors.append(got.value)
    assert len(calls) == 5
    assert all(error is errors[0] for error in errors)
    # a disconnected quandle is certified infinite once
    certified = []
    certify = fund._certify_finite
    monkeypatch.setattr(fund, "_certify_finite",
                        lambda q: certified.append(q) or certify(q))
    fg = fund.fundamental_group(qmod.trivial(2), 0)
    for _ in range(3):
        with pytest.raises(InfiniteGroup):
            fg.cayley
    assert fg.order is None and len(certified) == 1


def test_pi1_of_s7_enumerates_its_own_cosets():
    # 120 cosets at a peak of 140 live: the adjoint enumeration of
    # 2520 cosets would not fit this budget
    fg = fund.fundamental_group(transposition_quandle(7), 0, budget=1000)
    assert fg.order == 120
    assert len(fg.cayley) == 120


def test_pi1_of_the_s8_transposition_quandle():
    quandle = transpositions_on_pairs(8)
    assert quandle.n == 28 and quandle.is_connected()
    fg = fund.fundamental_group(quandle, 0)
    assert fg.order == 720
    assert fg.abelian_invariants() == fpgroup.AbelianInvariants(
        free_rank=0, torsion=(2,))


def test_pi1_of_the_s8_transposition_quandle_has_1455_subgroups():
    # pi_1 is S6 (OEIS A005432); symmetric_group(8) would pass
    # closure's element budget, so the quandle is built on pairs
    fg = fund.fundamental_group(transpositions_on_pairs(8), 0)
    assert len(permgroup.subgroups(fg.cayley)) == 1455


def test_subgroups_are_closed_under_conjugation():
    # every h^-1 K h of every subgroup K of pi_1 (S5) is listed too
    mul = fund.fundamental_group(transposition_quandle(7), 0).cayley
    found = [sub for sub, _ in permgroup.subgroups(mul)]
    assert len(found) == 156
    listed = set(found)
    for h, row in enumerate(mul):
        h_inv = row.index(0)
        for sub in found:
            assert tuple(sorted(mul[mul[h_inv][k]][h] for k in sub)) in listed


def test_fundamental_group_of_a_disconnected_quandle_enumerates_nothing(
        monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumeration started on a certified input")

    quandle = qmod.trivial(2)
    quandle.adjoint  # the presentation may be built, not enumerated
    monkeypatch.setattr(fpgroup, "todd_coxeter", no_enumeration)
    fg = fund.fundamental_group(quandle, 0, budget=10**9)
    assert fg.order is None
    with pytest.raises(InfiniteGroup):
        fg.regular
    assert fg.abelian_invariants() == coh.h2_integral(quandle)[0]


def test_expanded_table_is_the_full_adjoint_table(corpus):
    # the enumeration on S, filled in for every element, satisfies every
    # relator of the full adjoint presentation and has its index
    connected = 0
    for name, quandle in corpus:
        if not quandle.is_connected():
            continue
        connected += 1
        q = quandle.basepoints[0]
        table, ends = fund.adj0_enumeration(quandle, q, budget=20000)
        full = full_adjoint_presentation(quandle)
        assert table.generator_count == quandle.n
        assert table.coset_count == todd_coxeter_reference(
            full, [(q + 1,)], budget=20000).coset_count, name
        # e_q fixes coset 0, and e_a every coset ending at a
        assert table.apply_letter(0, q + 1) == 0
        for c, a in enumerate(ends):
            assert table.action[a][c] == c, name
        for x in range(quandle.n):
            assert sorted(table.action[x]) == list(range(table.coset_count))
            for c in range(table.coset_count):
                assert table.action_inv[x][table.action[x][c]] == c
        for c in range(table.coset_count):
            assert trace(table, 0, table.representative_word[c]) == c, name
            for r in full.relators:
                assert trace(table, c, r) == c, name
    assert connected >= 30


def test_endpoints_cover_the_component():
    quandle = transposition_quandle(4)
    table, ends = fund.adj0_enumeration(quandle, 0)
    assert set(ends) == set(range(quandle.n))
    # fibres over each endpoint have equal size
    sizes = {q: sum(1 for e in ends if e == q) for q in set(ends)}
    assert len(set(sizes.values())) == 1


def test_fundamental_group_two_pipelines_agree():
    for quandle, order in ((qmod.dihedral(3), 1),
                           (transposition_quandle(4), 2),
                           (transposition_quandle(5), 6)):
        fg = fund.fundamental_group(quandle, 0)
        assert fg.order == order
        # pi_1 acts on itself: a row of its Cayley table per element,
        # each a permutation of the order elements
        assert len(fg.cayley) == order
        assert all(sorted(row) == list(range(order)) for row in fg.cayley)
        # the adjoint enumeration: the cosets that end at the basepoint
        _, ends = fund.adj0_enumeration(quandle, 0)
        assert ends.count(0) == order


def test_order_counts_the_cosets_ending_at_the_basepoint(corpus):
    for name, quandle in corpus:
        if quandle.is_connected():
            q = quandle.basepoints[0]
            fg = fund.fundamental_group(quandle, q)
            _, ends = fund.adj0_enumeration(quandle, q)
            assert fg.order == ends.count(q) == len(fg.cayley), name


def test_pi1_and_coverings_multiply_no_permutations(monkeypatch, tmp_path):
    # pi_1, the universal cover and the census read pi_1's Cayley table
    # alone, so they print the same with permutation products refused;
    # the cover is pinned by its SHA-256
    path = tmp_path / "s5.txt"
    text = io.StringIO()
    cli.emit_quandle(transposition_quandle(5), text)
    path.write_text(text.getvalue())

    def refuse(*args):
        raise AssertionError("permutations multiplied")

    monkeypatch.setattr(permgroup, "mul", refuse)
    outputs = []
    for argv in (["pi1", str(path)], ["cover", str(path), "--universal"],
                 ["cover", str(path), "--enumerate"]):
        out = io.StringIO()
        assert cli.run(argv, out=out, err=io.StringIO()) == 0, argv
        outputs.append(out.getvalue())
    pi1, universal, census = outputs
    assert pi1 == "pi1 order=6 ab=rank 0 torsion 2\n"
    assert hashlib.sha256(universal.encode()).hexdigest() == (
        "147a4661308a139f32e96d314e8f148600a66e67884477ff5eb5632168b65dfc")
    # pi_1 = S3: trivial, three of index 3, A3 and S3
    assert census == "".join(
        f"covering {j}: fibre={fibre} galois={galois}\n"
        for j, (fibre, galois) in enumerate(
            ((6, "true"), (3, "false"), (3, "false"), (3, "false"),
             (2, "true"), (1, "true")), 1))


def test_fundamental_group_s5_abelianization():
    fg = fund.fundamental_group(transposition_quandle(5), 0)
    inv = fg.abelian_invariants()
    assert inv.free_rank == 0
    assert inv.torsion == (2,)


def test_fundamental_group_infinite_keeps_presentation():
    fg = fund.fundamental_group(qmod.q_mn(2, 2), 0, budget=3000)
    assert fg.order is None
    inv = fg.abelian_invariants()
    assert inv.free_rank == 1
    assert inv.torsion == (2,)


# ---------------------------------------------------------------------------
# the universal cover


def _s4_cover():
    return fund.universal_cover(
        fund.fundamental_group(transposition_quandle(4), 0))


def test_universal_cover_of_odd_dihedral_is_itself():
    for n in (3, 5, 7):
        cover = fund.universal_cover(
            fund.fundamental_group(qmod.dihedral(n), 0))
        assert cover.cover.n == n
        assert qmod.is_covering(cover.projection)[0]


def test_universal_cover_of_s4_quandle():
    cover = _s4_cover()
    assert cover.cover.n == 12
    assert qmod.is_covering(cover.projection)[0]
    assert cover.cover.is_connected()


def test_universal_cover_of_s7_quandle_has_one_column_per_base_element():
    base = transposition_quandle(7)
    cover = fund.universal_cover(fund.fundamental_group(base, 0))
    assert cover.cover.n == 2520
    assert len(set(zip(*cover.cover.op))) <= base.n == 21
    assert qmod.is_covering(cover.projection)[0]


def test_universal_cover_element_bookkeeping():
    # cover element g n + a is (a, g) in Q x pi_1, over a
    cover = _s4_cover()
    base = cover.pi1.quandle
    n, order = base.n, cover.pi1.order
    assert cover.cover.n == n * order
    for x in range(cover.cover.n):
        assert cover.projection.map[x] == x % n
        assert base.grading[cover.projection.map[x]] == 0


def test_disconnected_quandle_has_infinite_enumeration():
    # the coset space surjects onto a free abelian group of rank
    # (number of components - 1), so any disconnected quandle trips
    with pytest.raises(BudgetExceeded):
        fund.universal_cover(
            fund.fundamental_group(qmod.dihedral(4), 0, budget=3000))


def test_deck_group_acts_freely_on_fibres():
    cover = _s4_cover()
    base = cover.pi1.quandle
    deck = left_translations(cover.pi1.cayley, base.n)
    fibre = cover.projection.fibre(base.basepoints[0])
    for g in deck.elements:
        if g == deck.elements[deck.identity_index]:
            continue
        for x in fibre:
            assert g[x] != x


def test_deck_commutes_with_inner_action():
    # deck transformations are covering automorphisms: they commute
    # with every right translation of the cover
    cover = _s4_cover()
    op = cover.cover.op
    deck = left_translations(cover.pi1.cayley, cover.pi1.quandle.n)
    for g in deck.elements:
        for x in range(cover.cover.n):
            for b in range(cover.cover.n):
                assert g[op[x][b]] == op[g[x]][b]


def test_deck_elements_need_no_degree_adjustment(corpus):
    # a word ending at q commutes with adj(q), so tracing it as it is
    # gives the permutation of its degree-zero element
    checked = nonzero_degree = 0
    for name, quandle in corpus:
        if len(qmod.components(quandle)[0]) > 1:
            continue
        q = quandle.basepoints[0]
        table, ends = fund.adj0_enumeration(quandle, q, budget=20000)
        stabilizer = [c for c in range(table.coset_count) if ends[c] == q]
        deck = deck_group(table, ends, q)
        assert deck.elements == tuple(adjusted_deck_perm(table, q, c)
                                      for c in stabilizer), name
        nonzero_degree += sum(
            1 for w in table.representative_word
            if sum(1 if letter > 0 else -1 for letter in w))
        checked += 1
    assert checked >= 30
    assert nonzero_degree > 0


def test_universal_cover_budget_counts_pi1_cosets():
    # pi_1's enumeration peaks at 140 live cosets on S7; the adjoint
    # enumeration the cover once read needed 3395
    quandle = transposition_quandle(7)
    assert fund.universal_cover(fund.fundamental_group(
        quandle, 0, budget=140)).cover.n == 2520
    with pytest.raises(BudgetExceeded):
        fund.universal_cover(fund.fundamental_group(quandle, 0, budget=139))


# ---------------------------------------------------------------------------
# the covering model Q x_f pi_1 against the adjoint enumeration


def _census_inputs(corpus):
    """Every connected corpus quandle, the S5 and S6 transposition
    quandles and the S5 3-cycles."""
    inputs = [(name, quandle) for name, quandle in corpus
              if quandle.is_connected()]
    inputs += [(f"conj(S{m},transposition)", transposition_quandle(m))
               for m in (5, 6)]
    inputs.append(("conj(S5,3-cycle)",
                   qmod.conj_class(symmetric_group(5), (1, 2, 0, 3, 4))))
    return inputs


def test_covering_model_matches_the_adjoint_enumeration(corpus):
    # on the cosets of Adj(Q) modulo <e_q>: the universal projection
    # lifts bijectively through the cover built there, the census has
    # the same (fibre, normal) pairs, and the rows of pi_1's Cayley
    # table are the deck group on pi_1's own cosets; f is a
    # pi_1-valued cocycle
    inputs = _census_inputs(corpus)
    for name, quandle in inputs:
        q = quandle.basepoints[0]
        cover = fund.universal_cover(fund.fundamental_group(quandle, q))
        kind, lift = fund.check_lifting(
            cover.projection, universal_cover_by_columns(quandle)[0])
        assert kind == "lift", name
        assert sorted(lift.map) == list(range(cover.cover.n)), name
        fg = cover.pi1
        assert fg.cayley == deck_group(
            fg.regular, (q,) * fg.order, q).elements, name
        coverings = fund.enumerate_connected_coverings(fg)
        assert sorted((len(covering.projection.fibre(q)), covering.normal)
                      for covering in coverings) == sorted(
            census_by_orbits(quandle, q)), name
        values = coh.Coeff.from_table(fg.cayley, 0)
        assert cocycle_violation(fg.cocycle, quandle, values) is None, name
    assert len(inputs) >= 30


def test_pi1_model_is_the_enumeration_on_all_relators(corpus):
    # the model enumerated on a verified prefix of the relators is the
    # plain HLT's on all of them: the same order, and tracing each
    # element's representative word there is a bijection that carries
    # the Cayley table onto the reference's; f is a pi_1-valued cocycle
    inputs = _census_inputs(corpus)
    inputs.append(("conj(S7,transposition)", transposition_quandle(7)))
    for name, quandle in inputs:
        fg = fund.fundamental_group(quandle, quandle.basepoints[0])
        ref = todd_coxeter_reference(
            _plain(relator_classes(fg.presentation)))
        assert fg.order == ref.coset_count, name
        image = [trace(ref, 0, w) for w in fg.regular.representative_word]
        assert sorted(image) == list(range(fg.order)), name
        ref_mul = [[trace(ref, c, w) for w in ref.representative_word]
                   for c in range(ref.coset_count)]
        for g, row in enumerate(fg.cayley):
            assert [ref_mul[image[g]][image[h]] for h in range(fg.order)
                    ] == [image[gh] for gh in row], name
        values = coh.Coeff.from_table(fg.cayley, 0)
        assert cocycle_violation(fg.cocycle, quandle, values) is None, name
    assert len(inputs) >= 30


@pytest.mark.parametrize("relators, budget, rounds, order", [
    # <x | x^24, ..., x^288> is Z24: the first round, on 4 + 8
    # relators, closes on 24 cosets, and x^36 traced from coset 0 ends
    # at 12, so the last round reads all 13 relators and finds Z12
    ([(1,) * (24 * i) for i in range(1, 13)] + [(1,) * 36], 10**6,
     [(12, 1000, 24), (13, 10**6, 12)], 12),
    # <a, b | a^2, ..., a^32> is Z2 * Z: the first round, on 16
    # relators, reaches min(its cap, the budget) of live cosets; the
    # last adds b^3 and (ab)^2 and closes on S3
    ([(1,) * (2 * i) for i in range(1, 17)] + [(2, 2, 2), (1, 2) * 2],
     10**6, [(16, 1000, None), (18, 10**6, 6)], 6),
    ([(1,) * (2 * i) for i in range(1, 17)] + [(2, 2, 2), (1, 2) * 2],
     50, [(16, 50, None), (18, 50, 6)], 6),
])
def test_regular_grows_the_relators_until_every_one_is_traced(
        monkeypatch, relators, budget, rounds, order):
    generators = max(abs(x) for r in relators for x in r)
    pres = fpgroup.Presentation(generators, tuple(relators))
    calls = []
    enumerate_ = fpgroup.todd_coxeter

    def recorded(presentation, subgroup, budget):
        calls.append([len(presentation.relators), budget, None])
        table = enumerate_(presentation, subgroup, budget=budget)
        calls[-1][2] = table.coset_count
        return table

    monkeypatch.setattr(fpgroup, "todd_coxeter", recorded)
    table, closed = fund._regular(pres, pres.relators, budget)
    assert [tuple(call) for call in calls] == rounds
    assert closed.relators == tuple(relators[:rounds[-1][0]])
    ref = todd_coxeter_reference(pres)
    assert table.coset_count == ref.coset_count == order
    assert table == standard_form(ref)
    for r in relators:
        assert trace(table, 0, r) == 0


def test_regular_raises_the_last_rounds_budget_error():
    # every round runs out at budget 5 < |S3|, and the last one raises
    # as todd_coxeter does at that budget on all relators
    relators = [(1,) * (2 * i) for i in range(1, 17)] + [(2, 2, 2),
                                                        (1, 2) * 2]
    pres = fpgroup.Presentation(2, tuple(relators))
    with pytest.raises(BudgetExceeded) as got:
        fund._regular(pres, pres.relators, 5)
    with pytest.raises(BudgetExceeded) as want:
        fpgroup.todd_coxeter(pres, [], budget=5)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("quandle, prefix", [
    (transposition_quandle(5), True), (transposition_quandle(6), True),
    (transposition_quandle(7), True), (_three_cycles(5), False)],
    ids=["S5", "S6", "S7", "conj(S5,3-cycle)"])
def test_pi1_numbering_does_not_depend_on_the_round(quandle, prefix):
    # the model is in standard form, so the round that closed, all the
    # rotation classes and all the relators give the same CosetTable
    # (S5, S6 and S7 close on a proper prefix of the classes)
    fg = fund.fundamental_group(quandle, 0)
    table, closed = fg._enumeration
    pres = fg.presentation
    classes = tuple(fpgroup.rotation_classes(pres.relators))
    assert closed.relators == classes[:len(closed.relators)]
    assert (len(closed.relators) < len(classes)) == prefix
    for relators in (classes, pres.relators):
        assert table == fpgroup.todd_coxeter(
            fpgroup.Presentation(pres.generator_count, relators))


def test_pi1_abelianisation_reads_the_round_that_closed(corpus, monkeypatch,
                                                        tmp_path):
    # once the model is read, pi_1^ab comes from the round it closed on,
    # the same invariants as the whole presentation's; before, from the
    # presentation; h2_integral, and pi1 on a disconnected input, run
    # no enumeration at all
    enumerations, abelianised = [], []
    enumerate_, abelianise = fpgroup.todd_coxeter, fpgroup.abelian_invariants
    monkeypatch.setattr(fpgroup, "todd_coxeter", lambda *args, **kwargs: (
        enumerations.append(args) or enumerate_(*args, **kwargs)))
    monkeypatch.setattr(fpgroup, "abelian_invariants", lambda pres: (
        abelianised.append(pres) or abelianise(pres)))
    inputs = [(name, quandle) for name, quandle in corpus
              if quandle.is_connected()]
    inputs += [(f"conj(S{m},transposition)", transposition_quandle(m))
               for m in (4, 5, 6, 7)]
    inputs.append(("conj(S5,3-cycle)", _three_cycles(5)))
    for name, quandle in inputs:
        q = quandle.basepoints[0]
        enumerations.clear()
        h2 = coh.h2_integral(quandle)
        assert enumerations == [], name
        fg = fund.fundamental_group(quandle, q)
        abelianised.clear()
        before = fg.abelian_invariants()
        assert abelianised == [fg.presentation], name
        assert fg.order is not None, name
        abelianised.clear()
        after = fg.abelian_invariants()
        assert abelianised == [fg._enumeration[1]], name
        assert after == before == abelianise(fg.presentation) == h2[0], name
    assert len(inputs) >= 35
    disconnected = 0
    for name, quandle in corpus:
        if not quandle.is_connected():
            path = tmp_path / "q.txt"
            text = io.StringIO()
            cli.emit_quandle(quandle, text)
            path.write_text(text.getvalue())
            enumerations.clear()
            assert cli.run(["pi1", str(path)], out=io.StringIO(),
                           err=io.StringIO()) in (0, 2), name
            assert enumerations == [], name
            disconnected += 1
    assert disconnected >= 40


def _parent_regular(pres, budget):
    """pi_1's regular table by the rounds over all of relator_classes,
    each closed round verified on the classes beyond its prefix."""
    classes = relator_classes(pres).relators
    k, cap = 4 * pres.generator_count + 8, 1000
    while k < len(classes):
        prefix = fpgroup.Presentation(pres.generator_count, classes[:k])
        try:
            table = fpgroup.todd_coxeter(prefix, [], budget=min(cap, budget))
        except BudgetExceeded:
            k, cap = 2 * k, 4 * cap
            continue
        if all(trace(table, 0, r) == 0 for r in classes[k:]):
            return table
        k *= 2
    return fpgroup.todd_coxeter(
        fpgroup.Presentation(pres.generator_count, classes), [], budget=budget)


def test_pi1_canonicalises_each_relator_once_as_far_as_its_rounds_read(
        monkeypatch):
    # the rotation classes are read lazily: the relators canonicalised
    # are the first ones, shortest first, each once; S7 closes on a
    # prefix, while conj(S5, 3-cycles)'s last round reads all 46; the
    # table is the one the rounds over all classes give
    read = []
    least = fpgroup.least_rotation
    monkeypatch.setattr(fpgroup, "least_rotation",
                        lambda w: read.append(w) or least(w))
    for quandle, relators, counts in ((transposition_quandle(7), 910,
                                       range(200)),
                                      (_three_cycles(5), 46, [46])):
        read.clear()
        fg = fund.fundamental_group(quandle, 0)
        pres = fg.presentation
        assert (len(pres.relators), read) == (relators, [])
        table = fg.regular
        canonicalised = list(read)
        assert len(canonicalised) in counts
        # the relators are distinct, so a prefix reads each once
        assert canonicalised == sorted(pres.relators, key=len)[
            :len(canonicalised)]
        want = _parent_regular(pres, fpgroup.DEFAULT_COSET_BUDGET)
        assert (table.coset_count, table.action, table.representative_word
                ) == (want.coset_count, want.action, want.representative_word)


def test_subgroups_match_the_permutation_search(corpus):
    # the table search lists the subgroups the permutation search
    # finds in pi_1's left translations, in the same order, and the
    # census marks normal exactly the subgroups that are
    for name, quandle in _census_inputs(corpus):
        q = quandle.basepoints[0]
        fg = fund.fundamental_group(quandle, q)
        group = left_translations(fg.cayley)
        index = {g: i for i, g in enumerate(group.elements)}
        want = oracle_subgroups(group)
        assert [sub for sub, _ in permgroup.subgroups(fg.cayley)] == [
            tuple(sorted(index[g] for g in sub.elements))
            for sub in want], name
        census = fund.enumerate_connected_coverings(fg)
        assert [covering.normal for covering in census] == [
            is_normal(sub, group) for sub in want], name


def test_class_sizes_and_lazy_projections_match_the_references(corpus):
    # each subgroup's class size is its number of distinct conjugates,
    # found by conjugating it by every element of pi_1; a covering is
    # normal exactly when the permutation search and the right cosets
    # say K is; and each projection, read, is the quotient built from
    # K's right cosets, field by field
    inputs = [(name, quandle) for name, quandle in corpus
              if quandle.is_connected()]
    inputs += [(f"conj(S{m},transposition)", transposition_quandle(m))
               for m in (4, 5, 6, 7)]
    inputs.append(("conj(S5,3-cycle)", _three_cycles(5)))
    checked = 0
    for name, quandle in inputs:
        pi1 = fund.fundamental_group(quandle, quandle.basepoints[0])
        mul = pi1.cayley
        group = left_translations(mul)
        census = list(fund.enumerate_connected_coverings(pi1))
        pairs = permgroup.subgroups(mul)
        assert [c.subgroup for c in census] == [k for k, _ in pairs], name
        for covering, (sub, size) in zip(census, pairs):
            conjugates = {tuple(sorted(mul[mul[row.index(0)][k]][h]
                                       for k in sub))
                          for h, row in enumerate(mul)}
            assert size == len(conjugates), name
            elements = tuple(map(group.elements.__getitem__, sub))
            perms = permgroup.FiniteGroup(group.degree, elements, elements, 0)
            assert covering.normal == is_normal(perms, group) == (
                right_cosets(mul, sub)[1]), name
            assert "projection" not in vars(covering), name
            assert covering.projection == quotient_by_right_cosets(
                pi1, sub), name
            checked += 1
    assert len(inputs) >= 35 and checked >= 240


def test_covering_consumers_enumerate_no_adjoint_cosets(monkeypatch):
    def no_adjoint(*args, **kwargs):
        raise AssertionError("adjoint cosets enumerated")

    monkeypatch.setattr(fund, "adj0_enumeration", no_adjoint)
    quandle = transposition_quandle(5)
    pi1 = fund.fundamental_group(quandle, 0)
    cover = fund.universal_cover(pi1)
    assert cover.cover.n == 60
    assert len(list(fund.enumerate_connected_coverings(pi1))) == 6
    fibre, _ = fund.monodromy(cover.projection, pi1)
    assert pi1.order == len(fibre) == 6
    # pi_1 = S3: the sign sends its three involutions to 1
    mul = cover.pi1.cayley
    sign = [int(g != 0 and mul[g][g] == 0) for g in range(6)]
    assert sum(sign) == 3
    z2 = coh.Coeff.from_invariants([2])
    f = coh.cocycle_from_hom(pi1, z2, sign)
    ext = coh.extension_from_cocycle(quandle, z2, f)
    assert coh.hom_from_extension(ext, pi1) == sign


# ---------------------------------------------------------------------------
# lifting and the covering census


def test_check_lifting_simply_connected_base():
    # pi_1(D3) is trivial, so the identity lifts through the universal
    # cover (which is an isomorphism there)
    quandle = qmod.dihedral(3)
    cover = fund.universal_cover(fund.fundamental_group(quandle, 0))
    kind, lift = fund.check_lifting(qmod.identity_hom(quandle),
                                    cover.projection)
    assert kind == "lift"
    for a in range(quandle.n):
        assert cover.projection.map[lift.map[a]] == a


def test_check_lifting_counts_orbits_not_grading_classes():
    # dihedral(4) has two orbits, {0, 2} and {1, 3}; a grading with one
    # class must not let it through as a connected source
    d4 = qmod.dihedral(4)
    source = qmod.validate(d4.op, grading=(0, 0, 0, 0))
    assert source.is_connected()
    f = qmod.QuandleHom(source, d4, (0, 1, 2, 3))
    with pytest.raises(ValueError, match="must be connected"):
        fund.check_lifting(f, qmod.identity_hom(d4))


def test_census_counts_orbits_not_grading_classes():
    # the total of a trivial Z2 cocycle on dihedral(3) is two copies of
    # it: one grading class, pulled back from the base, but two orbits
    d3 = qmod.dihedral(3)
    z2 = coh.Coeff.from_invariants([2])
    total = coh.extension_from_cocycle(
        d3, z2, coh.trivial_cocycle(d3, z2)).total
    assert total.is_connected()
    assert len(qmod.components(total)[0]) == 2
    with pytest.raises(ValueError, match="covering census needs a "
                                         "connected base"):
        fund.enumerate_connected_coverings(fund.fundamental_group(total, 0))


def test_check_lifting_rejects_a_lift_basepoint_off_the_cover():
    # dihedral(3) is its own universal cover; -3 would read p.map from
    # its end and sit over f(x)
    quandle = qmod.dihedral(3)
    p = fund.universal_cover(fund.fundamental_group(quandle, 0)).projection
    f = qmod.identity_hom(quandle)
    for bad in (-3, 3):
        with pytest.raises(ValueError, match="outside the cover"):
            fund.check_lifting(f, p, lift_basepoint=bad)
    assert fund.check_lifting(f, p, lift_basepoint=0)[0] == "lift"


def test_monodromy_checks_its_pi1():
    # pi_1 of another table, even of one the same size, is refused
    cover = _s4_cover()
    for other in (qmod.dihedral(3), qmod.dihedral(6)):
        with pytest.raises(ValueError, match="not of the covering's base"):
            fund.monodromy(cover.projection, fund.fundamental_group(other, 0))


def test_check_lifting_obstruction():
    # the identity of the S4 quandle cannot lift through its universal
    # cover: that would need trivial pi_1
    quandle = transposition_quandle(4)
    cover = fund.universal_cover(fund.fundamental_group(quandle, 0))
    kind, witness = fund.check_lifting(qmod.identity_hom(quandle),
                                       cover.projection)
    assert kind == "witness"
    w1, w2 = witness
    # the two loop words land on different cover elements over one base
    p = cover.projection
    x1 = right_action_on_cover(p, 0, w1)
    x2 = right_action_on_cover(p, 0, w2)
    assert x1 != x2
    assert p.map[x1] == p.map[x2]


def test_enumerate_coverings_of_odd_dihedral():
    for n in (3, 5, 7):
        coverings = list(fund.enumerate_connected_coverings(
            fund.fundamental_group(qmod.dihedral(n), 0)))
        assert len(coverings) == 1


def test_enumerate_coverings_counts():
    # pi_1 of the S_m transposition quandle has as many subgroups as
    # S_(m-2): 2, 6, 30 and 156 for m = 4..7 (OEIS A005432); the census
    # builds no quotient, so S7's is counted whole
    for m, count in ((4, 2), (5, 6), (6, 30), (7, 156)):
        pi1 = fund.fundamental_group(transposition_quandle(m), 0)
        assert len(list(fund.enumerate_connected_coverings(pi1))) == count, m
    assert len(permgroup.subgroups(pi1.cayley)) == 156


def test_census_holds_one_covering_at_a_time():
    # the S7 census's 156 quotients hold 90825 elements in all; each
    # projection read and dropped in turn, it peaks near the largest
    # one (the universal cover, N = 2520), where a list of them all
    # holds about 50 MiB
    quandle = transposition_quandle(7)
    tracemalloc.start()
    try:
        count = elements = 0
        for covering in fund.enumerate_connected_coverings(
                fund.fundamental_group(quandle, 0)):
            count += 1
            elements += covering.cover.n
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (count, elements) == (156, 90825)
    assert peak < 10 * 2**20, peak


def test_census_raises_from_the_call(monkeypatch):
    # pi_1 and its subgroups are found before the iterator is returned,
    # so every error comes from the call, with no quotient built
    def no_quotient(*args, **kwargs):
        raise AssertionError("a quotient was built")

    monkeypatch.setattr(fund, "_quotient", no_quotient)
    s5 = transposition_quandle(5)
    fund.enumerate_connected_coverings(fund.fundamental_group(s5, 0))
    with pytest.raises(ValueError, match="connected base"):
        fund.enumerate_connected_coverings(
            fund.fundamental_group(qmod.q_mn(2, 2), 0))
    with pytest.raises(BudgetExceeded):
        fund.enumerate_connected_coverings(
            fund.fundamental_group(s5, 0, budget=2))


def test_enumerated_coverings_are_coverings():
    for covering in fund.enumerate_connected_coverings(
            fund.fundamental_group(transposition_quandle(5), 0)):
        projection = covering.projection
        assert qmod.is_covering(projection)[0]
        assert projection.source.is_connected()
        # fibre size is the subgroup index in pi_1
        fibre = projection.fibre(0)
        assert len(fibre) * len(covering.subgroup) == 6


def test_theorem_built_projections_pass_the_public_checks(
        corpus, corpus_coverings):
    # covers, census quotients, extension totals, pullbacks and unions
    # are built unchecked, with their gradings trusted; re-checked
    # through the public QuandleHom constructor, each is a homomorphism
    # with the same section, and validate rebuilds its source from its
    # table with the grading and basepoints it was given.  Covers and
    # census quotients are connected: qmod.components finds the one
    # component their grading and basepoint were given.  The legs of the
    # pullbacks, built unchecked too, pass the same constructor
    connected = [p for _, p in corpus_coverings]
    for quandle in (transposition_quandle(5), _three_cycles(5)):
        pi1 = fund.fundamental_group(quandle, 0)
        connected.append(fund.universal_cover(pi1).projection)
        connected += [covering.projection for covering in
                      fund.enumerate_connected_coverings(pi1)]
    for p in connected:
        parts, index = qmod.components(p.source)
        assert len(parts) == 1
        assert (p.source.grading, p.source.basepoints) == (index, (0,))
        assert p.source == qmod.from_columns(
            p.source.rho, p.source, range(p.source.n)).source
    # extension totals: the Z2 and Z3 coboundaries of every corpus
    # quandle, graded by its components, and Q x_f pi_1 with pi_1's own
    # cocycle on each connected one
    extensions = []
    for _, quandle in corpus:
        for k in (2, 3):
            lam = coh.Coeff.from_invariants([k])
            g = tuple(a % k for a in range(quandle.n))
            extensions.append(coh.extension_from_cocycle(
                quandle, lam, coh.coboundary(quandle, lam, g)).projection)
        if quandle.is_connected():
            fg = fund.fundamental_group(quandle, quandle.basepoints[0])
            extensions.append(coh.extension_from_cocycle(
                quandle, coh.Coeff.from_table(fg.cayley, 0),
                fg.cocycle).projection)
    assert any(p.source.component_count > 1 for p in extensions)
    # each corpus covering pulled back along its base's universal
    # cover, and the union of each base's coverings
    by_base, combined, legs = {}, [], []
    for name, p in corpus_coverings:
        by_base.setdefault(name, []).append(p)
    for coverings in by_base.values():
        for p in coverings:
            projection, leg = qmod.pullback(p, coverings[0])
            combined.append(projection)
            legs.append(leg)
        combined.append(qmod.union_coverings(coverings))
    for p in connected + extensions + combined + legs:
        again = qmod.QuandleHom(p.source, p.target, p.map)
        assert again == p and again.section == p.section
    for p in connected + extensions + combined:
        assert qmod.validate(p.source.op, grading=p.source.grading,
                             basepoints=p.source.basepoints) == p.source
    assert len(connected) >= 80 and len(extensions) >= 200
    assert len(combined) >= 100 and len(legs) >= 70


def test_universal_cover_projects_onto_every_covering():
    pi1 = fund.fundamental_group(transposition_quandle(4), 0)
    cover = fund.universal_cover(pi1)
    for covering in fund.enumerate_connected_coverings(pi1):
        projection = covering.projection
        kind, lift = fund.check_lifting(cover.projection, projection)
        assert kind == "lift"
        morphism = qmod.QuandleHom(cover.cover, projection.source, lift.map)
        assert qmod.is_covering(morphism)[0]


def test_census_is_the_galois_correspondence(corpus):
    # three computations meet in the paper's main theorem: the subgroup
    # K of pi_1 behind each census covering p_K is the stabiliser of
    # the basepoint lift (q, K) under monodromy, which sends it to the
    # fibre points of the right cosets K g, so the fibre has
    # [pi_1 : K] points; p_K lifts through p_K' exactly when K lies in
    # K', and p_K is Galois exactly when every fibre point over q has
    # the same stabiliser
    inputs = [(name, quandle) for name, quandle in corpus
              if quandle.is_connected()]
    inputs += [(f"conj(S{m},transposition)", transposition_quandle(m))
               for m in (5, 6)]
    pairs = 0
    for name, quandle in inputs:
        q = quandle.basepoints[0]
        pi1 = fund.fundamental_group(quandle, q)
        census = list(fund.enumerate_connected_coverings(pi1))
        for covering in census:
            sub, p = covering.subgroup, covering.projection
            fibre, perms = fund.monodromy(p, pi1)
            assert fibre[0] == q == p.source.basepoints[0], name
            stabilisers = {tuple(k for k, perm in enumerate(perms)
                                 if perm[i] == i)
                           for i in range(len(fibre))}
            assert tuple(k for k, perm in enumerate(perms)
                         if perm[0] == 0) == sub, name
            assert len(fibre) * len(sub) == pi1.order, name
            mul = pi1.cayley
            assert {frozenset(g for g, perm in enumerate(perms)
                              if perm[0] == i)
                    for i in range(len(fibre))} == {
                frozenset(mul[k][h] for k in sub)
                for h in range(pi1.order)}, name
            assert covering.normal == (len(stabilisers) == 1), name
        for covering in census:
            for other in census:
                kind, _ = fund.check_lifting(covering.projection,
                                             other.projection,
                                             lift_basepoint=q)
                assert (kind == "lift") == set(covering.subgroup).issubset(
                    other.subgroup), name
                pairs += 1
    assert len(inputs) >= 30 and pairs >= 1000


def test_coverings_build_no_square_table():
    # the universal cover and every census quotient of the S6
    # transposition quandle, read as `cover --universal` and
    # `cover --enumerate` read them, are held by their 15 distinct
    # columns alone: no N x N table, and no inverse, is built
    pi1 = fund.fundamental_group(transposition_quandle(6), 0)
    cover = fund.universal_cover(pi1)
    cli.emit_quandle(cover.cover, io.StringIO())
    cli.emit_map(cover.projection.map, io.StringIO())
    built = [cover.cover]
    for covering in fund.enumerate_connected_coverings(pi1):
        p = covering.projection
        assert len(p.fibre(0)) * p.target.n == p.source.n
        built.append(p.source)
    assert len(built) == 31 and cover.cover.n == 360
    for total in built:
        assert len(total.columns) == 15
        assert {"op", "inv_op", "inverses"}.isdisjoint(vars(total))


S8_COVER = """
import resource
import sys
from itertools import combinations
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from quandelier import fundamental as fund, quandle as qmod
pairs = list(combinations(range(8), 2))
index = {p: k for k, p in enumerate(pairs)}
def conj(a, b):
    swap = {b[0]: b[1], b[1]: b[0]}
    return index[tuple(sorted(swap.get(x, x) for x in a))]
quandle = qmod.validate([[conj(a, b) for b in pairs] for a in pairs])
cover = fund.universal_cover(fund.fundamental_group(quandle, 0))
sys.exit(0 if (cover.cover.n, len(cover.cover.columns)) == (20160, 28) else 4)
"""


def test_s8_universal_cover_fits_in_a_gigabyte():
    # N = 20160: two N x N tables would need several GB, while 28
    # columns of N take a few MB.  The address-space limit is set in
    # the child process only.
    src = Path(fund.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", S8_COVER], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


# ---------------------------------------------------------------------------
# monodromy


def test_monodromy_of_universal_cover_is_regular():
    cover = _s4_cover()
    deck = cover.pi1
    fibre, perms = fund.monodromy(cover.projection, deck)
    assert len(fibre) == deck.order
    # the action on the fibre is free and transitive
    for perm in perms:
        assert sorted(perm) == list(range(len(fibre)))
    images = {tuple(perm) for perm in perms}
    assert len(images) == deck.order


def test_monodromy_of_trivial_covering_is_trivial():
    quandle = qmod.dihedral(3)
    fibre, perms = fund.monodromy(qmod.identity_hom(quandle),
                                  fund.fundamental_group(quandle, 0))
    assert fibre == (0,)
    assert set(perms) == {(0,)}


def test_monodromy_is_unchanged_on_corpus_covers(corpus):
    # the universal cover and every census covering of each connected
    # corpus quandle: the permutations are those of the adjoint
    # enumeration's stabilizer words, each letter lifted to its last
    # preimage instead of its first, one cover element at a time.  They
    # are listed in another order, so they are compared as a multiset,
    # and k -> perms[k] must be a right action of pi_1's Cayley table
    checked = 0
    for name, quandle in corpus:
        if not quandle.is_connected():
            continue
        q = quandle.basepoints[0]
        group = fund.fundamental_group(quandle, q)
        coverings = [fund.universal_cover(group).projection]
        coverings += [covering.projection for covering in
                      fund.enumerate_connected_coverings(group)]
        table, ends = fund.adj0_enumeration(quandle, q)
        stabilizer = [w for w, e in zip(table.representative_word, ends)
                      if e == q]
        for p in coverings:
            last = {p.map[x]: x for x in range(p.source.n)}
            fibre = p.fibre(q)
            pos = {x: i for i, x in enumerate(fibre)}
            want = []
            for word in stabilizer:
                images = []
                for x in fibre:
                    for letter in word:
                        b = last[abs(letter) - 1]
                        x = (p.source.op[x][b] if letter > 0
                             else p.source.inv_op[x][b])
                    images.append(pos[x])
                want.append(tuple(images))
            got_fibre, perms = fund.monodromy(p, group)
            assert got_fibre == fibre
            assert sorted(perms) == sorted(want), name
            mul = group.cayley
            assert group.order == len(perms) == len(mul)
            for g, row in enumerate(mul):
                for h, gh in enumerate(row):
                    assert perms[gh] == tuple(perms[h][i]
                                              for i in perms[g]), name
            checked += 1
    assert checked >= 60
