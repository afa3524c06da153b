import io

import pytest

from quandelier import (cli, cohomology as coh, fpgroup, fundamental as fund,
                        permgroup, quandle as qmod)
from quandelier.errors import BudgetExceeded, InfiniteGroup
from conftest import symmetric_group, transposition_quandle
from oracles import (adjusted_deck_perm, full_adjoint_presentation,
                     path_complex_cells, reidemeister_schreier,
                     todd_coxeter_reference)


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
    assert len(fpgroup.adjoint_presentation(quandle).relators) == 3
    assert len(tuple(fund.build_complex(quandle, range(3)))) == 3 * 3 + 3



def test_the_adjoint_presentation_is_built_once_per_quandle(monkeypatch):
    # the quandles are built here, so that no earlier test has cached
    # their presentation: one build serves every component's pi_1 and
    # both pipelines of fundamental_group
    calls = []
    build = fpgroup.adjoint_presentation

    def counted(quandle):
        calls.append(quandle)
        return build(quandle)

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


def test_cell_boundaries_are_closed_loops():
    # each 2-cell boundary word traces back to its starting vertex; in
    # the full complex edge e is (e // n, e % n), on S it is
    # (e // |S|, S[e % |S|])
    for quandle in (qmod.dihedral(5), transposition_quandle(4)):
        n, gens = quandle.n, quandle.generators
        for cells, ends in (
                (path_complex_cells(quandle.op),
                 _edge_ends(quandle, n, range(n))),
                (fund.build_complex(quandle, range(n)),
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
    # spanning tree of |C| - 1 of them
    for name, quandle in corpus:
        parts, index = qmod.components(quandle)
        m = len(quandle.generators)
        for b in range(quandle.n):
            size = len(parts[index[b]])
            assert (reidemeister_schreier(quandle, b).generator_count
                    == size * m - (size - 1)), name
    assert reidemeister_schreier(qmod.dihedral(91), 0).generator_count == 92


# ---------------------------------------------------------------------------
# presentations and enumerations; oracles are classical group orders


def test_pi1_presentation_of_odd_dihedral_is_trivial():
    # the Tietze moves kill every generator of the rewrite
    for n in (3, 5, 7, 9):
        quandle = qmod.dihedral(n)
        assert fund.pi1_presentation(quandle, 0) == fpgroup.Presentation(
            generator_count=0, relators=())
        table = fpgroup.todd_coxeter(reidemeister_schreier(quandle, 0))
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
        cells = tuple(build(quandle, vertices))
        calls.append(list(vertices))
        built.extend(cells)
        return cells

    monkeypatch.setattr(fund, "build_complex", recording)
    quandle = qmod.trivial(30)
    h2 = coh.h2_integral(quandle)
    assert len(h2) == 30
    assert calls == [[a] for a in range(quandle.n)]
    # every cell starts at its own call's vertex: edge e leaves e // |S|
    m = len(quandle.generators)
    ends = _edge_ends(quandle, m, quandle.generators)
    starts = [ends(abs(w[0]) - 1)[0 if w[0] > 0 else 1] for w in built]
    per_vertex = len(fpgroup.adjoint_presentation(quandle).relators) + 1
    assert starts == [a for a in range(quandle.n) for _ in range(per_vertex)]
    assert sorted(built) == sorted(build(quandle, range(quandle.n)))


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
            rewrite = reidemeister_schreier(quandle, q)
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
                assert table.trace(0, filter(None, word)) == 0, name


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
            rewrite = reidemeister_schreier(quandle, q)
            assert fund.pi1_presentation(quandle, q) == fpgroup.simplify(
                rewrite.generator_count, rewrite.relators)[0], (name, q)


def test_pi1_presentation_stops_reading_once_no_generator_survives(
        monkeypatch):
    # cells are lifted as they are read: on dihedral(45) every
    # generator is dead within the lifts of the 22nd of its 45 relators
    read = []
    build = fund.build_complex

    def counting(quandle, vertices):
        for cell in build(quandle, vertices):
            read.append(cell)
            yield cell

    monkeypatch.setattr(fund, "build_complex", counting)
    quandle = qmod.dihedral(45)
    assert fund.pi1_presentation(quandle, 0) == fpgroup.Presentation(
        generator_count=0, relators=())
    assert len(quandle.adjoint.relators) == 45
    assert len(read) == 45 + 21 * 45 + 22 <= 45 + 22 * 45
    # pi_1 of S7 is not trivial: every cell is read
    read.clear()
    quandle = transposition_quandle(7)
    assert fund.pi1_presentation(quandle, 0).generator_count == 10
    assert len(quandle.adjoint.relators) == 105
    assert len(read) == 21 + 105 * 21


def test_pi1_of_s7_enumerates_its_own_cosets():
    # 120 cosets at a peak of 174 live: the adjoint enumeration of
    # 2520 cosets would not fit this budget
    fg = fund.fundamental_group(transposition_quandle(7), 0, budget=1000)
    assert fg.order == 120
    assert fg.finite_form.degree == 120


def _transpositions_on_pairs(m):
    """The transposition quandle of S_m on the pairs i < j: (i j)
    conjugated by (k l) swaps k and l among its points."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    index = {p: k for k, p in enumerate(pairs)}

    def conj(a, b):
        swap = {b[0]: b[1], b[1]: b[0]}
        return index[tuple(sorted(swap.get(x, x) for x in a))]

    return qmod.validate([[conj(a, b) for b in pairs] for a in pairs])


def test_pi1_of_the_s8_transposition_quandle():
    quandle = _transpositions_on_pairs(8)
    assert quandle.n == 28 and quandle.is_connected()
    fg = fund.fundamental_group(quandle, 0)
    assert fg.order == 720
    assert fg.abelian_invariants() == fpgroup.AbelianInvariants(
        free_rank=0, torsion=(2,))


def test_fundamental_group_of_a_disconnected_quandle_enumerates_nothing(
        monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumeration started on a certified input")

    quandle = qmod.trivial(2)
    quandle.adjoint  # the presentation may be built, not enumerated
    monkeypatch.setattr(fpgroup, "todd_coxeter", no_enumeration)
    fg = fund.fundamental_group(quandle, 0, budget=10**9)
    assert fg.order is None and fg.finite_form is None
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
            assert table.trace(0, table.representative_word[c]) == c, name
            for r in full.relators:
                assert table.trace(c, r) == c, name
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
        assert fg.finite_form.order == fg.finite_form.degree == order
        # the adjoint enumeration: the cosets that end at the basepoint
        _, ends = fund.adj0_enumeration(quandle, 0)
        assert ends.count(0) == order


def test_order_counts_the_cosets_ending_at_the_basepoint(corpus):
    for name, quandle in corpus:
        if quandle.is_connected():
            q = quandle.basepoints[0]
            fg = fund.fundamental_group(quandle, q)
            _, ends = fund.adj0_enumeration(quandle, q)
            assert fg.order == ends.count(q) == fg.finite_form.order, name


def test_deck_permutations_are_built_only_on_request(monkeypatch, tmp_path):
    calls = []
    deck_group = fund.deck_group
    monkeypatch.setattr(fund, "deck_group",
                        lambda *args: calls.append(args) or deck_group(*args))
    quandle = transposition_quandle(5)
    path = tmp_path / "s5.txt"
    text = io.StringIO()
    cli.emit_quandle(quandle, text)
    path.write_text(text.getvalue())
    for argv in (["pi1", str(path)], ["cover", str(path), "--universal"]):
        out = io.StringIO()
        assert cli.run(argv, out=out, err=io.StringIO()) == 0
    assert out.getvalue().startswith("quandle 60\n")
    assert calls == []
    cover = fund.universal_cover(quandle)
    fg = fund.fundamental_group(quandle, 0)
    assert fg.order == 6 and calls == []
    assert cover.deck is cover.deck and fg.finite_form.order == 6
    # the deck group acts on the 60 cosets of the adjoint enumeration,
    # the finite form on pi_1's own 6
    assert [args[0].coset_count for args in calls] == [60, 6]


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


def test_universal_cover_of_odd_dihedral_is_itself():
    for n in (3, 5, 7):
        cover = fund.universal_cover(qmod.dihedral(n))
        assert cover.cover.n == n
        assert qmod.is_covering(cover.projection)[0]


def test_universal_cover_of_s4_quandle():
    cover = fund.universal_cover(transposition_quandle(4))
    assert cover.cover.n == 12
    assert qmod.is_covering(cover.projection)[0]
    assert cover.cover.is_connected()


def test_universal_cover_of_s7_quandle_has_one_column_per_base_element():
    base = transposition_quandle(7)
    cover = fund.universal_cover(base)
    assert cover.cover.n == 2520
    assert len(set(zip(*cover.cover.op))) <= base.n == 21
    assert qmod.is_covering(cover.projection)[0]


def test_universal_cover_element_bookkeeping():
    # cover element c is coset c of the enumeration, over its endpoint
    cover = fund.universal_cover(transposition_quandle(4))
    assert cover.cover.n == cover.table.coset_count
    assert cover.projection.map == cover.endpoints
    for x in range(cover.cover.n):
        assert cover.base.grading[cover.projection.map[x]] == 0


def test_disconnected_quandle_has_infinite_enumeration():
    # the coset space surjects onto a free abelian group of rank
    # (number of components - 1), so any disconnected quandle trips
    with pytest.raises(BudgetExceeded):
        fund.universal_cover(qmod.dihedral(4), budget=3000)


def test_deck_group_acts_freely_on_fibres():
    cover = fund.universal_cover(transposition_quandle(4))
    deck = cover.deck
    fibre = cover.projection.fibre(cover.base.basepoints[0])
    for g in deck.elements:
        if g == deck.elements[deck.identity_index]:
            continue
        for x in fibre:
            assert g[x] != x


def test_deck_commutes_with_inner_action():
    # deck transformations are covering automorphisms: they commute
    # with every right translation of the cover
    cover = fund.universal_cover(transposition_quandle(4))
    op = cover.cover.op
    for g in cover.deck.elements:
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
        deck = fund.deck_group(table, ends, q)
        assert deck.elements == tuple(adjusted_deck_perm(table, q, c)
                                      for c in stabilizer), name
        nonzero_degree += sum(
            1 for w in table.representative_word
            if sum(1 if letter > 0 else -1 for letter in w))
        checked += 1
    assert checked >= 30
    assert nonzero_degree > 0


# ---------------------------------------------------------------------------
# lifting and the covering census


def test_check_lifting_simply_connected_base():
    # pi_1(D3) is trivial, so the identity lifts through the universal
    # cover (which is an isomorphism there)
    quandle = qmod.dihedral(3)
    cover = fund.universal_cover(quandle)
    kind, lift = fund.check_lifting(qmod.identity_hom(quandle),
                                    cover.projection)
    assert kind == "lift"
    for a in range(quandle.n):
        assert cover.projection.map[lift.map[a]] == a


def test_check_lifting_obstruction():
    # the identity of the S4 quandle cannot lift through its universal
    # cover: that would need trivial pi_1
    quandle = transposition_quandle(4)
    cover = fund.universal_cover(quandle)
    kind, witness = fund.check_lifting(qmod.identity_hom(quandle),
                                       cover.projection)
    assert kind == "witness"
    w1, w2 = witness
    # the two loop words land on different cover elements over one base
    p = cover.projection
    x1 = fund.right_action_on_cover(p, 0, w1)
    x2 = fund.right_action_on_cover(p, 0, w2)
    assert x1 != x2
    assert p.map[x1] == p.map[x2]


def test_enumerate_coverings_of_odd_dihedral():
    for n in (3, 5, 7):
        coverings = fund.enumerate_connected_coverings(qmod.dihedral(n), 0)
        assert len(coverings) == 1


def test_enumerate_coverings_counts():
    assert len(fund.enumerate_connected_coverings(
        transposition_quandle(4), 0)) == 2
    # pi_1 = S3 has six subgroups
    assert len(fund.enumerate_connected_coverings(
        transposition_quandle(5), 0)) == 6


def test_enumerated_coverings_are_coverings():
    for sub, projection in fund.enumerate_connected_coverings(
            transposition_quandle(5), 0):
        assert qmod.is_covering(projection)[0]
        assert projection.source.is_connected()
        # fibre size is the subgroup index in pi_1
        fibre = projection.fibre(0)
        assert len(fibre) * sub.order == 6


def test_universal_cover_projects_onto_every_covering():
    quandle = transposition_quandle(4)
    cover = fund.universal_cover(quandle)
    for sub, projection in fund.enumerate_connected_coverings(quandle, 0):
        kind, lift = fund.check_lifting(cover.projection, projection)
        assert kind == "lift"
        morphism = qmod.QuandleHom(cover.cover, projection.source, lift.map)
        assert qmod.is_covering(morphism)[0]


# ---------------------------------------------------------------------------
# monodromy


def test_monodromy_of_universal_cover_is_regular():
    quandle = transposition_quandle(4)
    cover = fund.universal_cover(quandle)
    deck, fibre, perms = fund.monodromy(cover.projection, 0)
    assert len(fibre) == deck.order
    # the action on the fibre is free and transitive
    for perm in perms:
        assert sorted(perm) == list(range(len(fibre)))
    images = {tuple(perm) for perm in perms}
    assert len(images) == deck.order


def test_monodromy_of_trivial_covering_is_trivial():
    quandle = qmod.dihedral(3)
    deck, fibre, perms = fund.monodromy(qmod.identity_hom(quandle), 0)
    assert fibre == (0,)
    assert set(perms) == {(0,)}


def test_monodromy_is_unchanged_on_corpus_covers(corpus):
    # the universal cover and every census covering of each connected
    # corpus quandle: the permutations are those of lifting each letter
    # to its last preimage instead of its first, one cover element at a
    # time
    checked = 0
    for name, quandle in corpus:
        if not quandle.is_connected():
            continue
        q = quandle.basepoints[0]
        coverings = [fund.universal_cover(quandle).projection]
        coverings += [p for _, p in
                      fund.enumerate_connected_coverings(quandle, q)]
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
            deck, got_fibre, perms = fund.monodromy(p, q)
            assert got_fibre == fibre
            assert perms == tuple(want), name
            checked += 1
    assert checked >= 60
