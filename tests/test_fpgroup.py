import random
from itertools import combinations

import pytest

from quandelier import fpgroup, quandle as qmod
from quandelier.errors import BudgetExceeded
from quandelier.fpgroup import AbelianInvariants, Presentation
from conftest import cyclic_table, symmetric_group, transposition_quandle
from oracles import (adjoint_presentation_reference, count_homs_to_abelian,
                     enumerate_homs, full_adjoint_presentation, normalize,
                     relator_classes, simplify_reference,
                     smith_normal_form_with_transforms,
                     todd_coxeter_reference, trace)


# ---------------------------------------------------------------------------
# words


def test_normalize_cancels_inverse_pairs():
    assert normalize((1, -1)) == ()
    assert normalize((2, 1, -1, -2, 3)) == (3,)
    assert normalize((1, 2, -2, 2)) == (1, 2)


def test_inverse_word():
    w = (1, -2, 3)
    assert fpgroup.inverse_word(w) == (-3, 2, -1)
    assert normalize(w + fpgroup.inverse_word(w)) == ()


def test_presentation_rejects_letters_out_of_range():
    assert Presentation(generator_count=2, relators=((), (2, -1))).relators
    for bad in ((1, 3), (-3,), (0,), (1, 0, -1)):
        with pytest.raises(ValueError, match="relator 1 has a letter"):
            Presentation(generator_count=2, relators=((1,), bad))


# ---------------------------------------------------------------------------
# Todd-Coxeter; oracles are groups of known order


S3_PRESENTATION = Presentation(
    generator_count=2,
    relators=((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)))


def _classes(generator_count, relators, killed=frozenset()):
    """simplify's result with one relator per rotation class, as pi_1's
    enumeration reads it."""
    pres, images = fpgroup.simplify(generator_count, relators, killed)
    return relator_classes(pres), images


def test_simplify_kills_and_eliminates():
    # x1 = 1 kills generator 1; x2 x3^-1 = 1 eliminates the later x3 as
    # x2, and x3^3 becomes x2^3, renumbered x1^3 and kept as its least
    # rotation or inverse, x1^-3
    pres = Presentation(generator_count=3,
                        relators=((1,), (2, -3), (3, 3, 3)))
    assert _classes(pres.generator_count, pres.relators) == (
        Presentation(generator_count=1, relators=((-1, -1, -1),)),
        (0, 1, 1))
    # x1 x2 x1^-1 reduces cyclically to x2, which dies; x2 x1 x3^-1 then
    # reads x1 x3^-1, and a second pass sets x3 = x1; duplicates go
    pres = Presentation(generator_count=3,
                        relators=((1, 2, -1), (2, 1, -3), (3, 3, 3),
                                  (3, 3, 3)))
    assert _classes(pres.generator_count, pres.relators) == (
        Presentation(generator_count=1, relators=((-1, -1, -1),)),
        (1, 0, 1))
    # a longer relator eliminates nothing, and its rotations and its
    # inverse are one relator
    pres = Presentation(generator_count=2,
                        relators=((1, 2, 2), (2, 1, 2), (-2, -2, -1)))
    assert _classes(pres.generator_count, pres.relators) == (
        Presentation(generator_count=2, relators=((-2, -2, -1),)), (1, 2))


def test_simplify_keeps_the_least_rotation_or_inverse():
    # against every rotation of the word and of its inverse, on random
    # cyclically reduced words of length >= 3, which eliminate nothing
    rng = random.Random(7)
    letters = [1, 2, 3, -1, -2, -3]
    words = []
    while len(words) < 300:
        w = normalize(rng.choice(letters)
                              for _ in range(rng.randint(3, 9)))
        if len(w) >= 3 and w[0] != -w[-1]:
            words.append(w)

    def least(w):
        return min(v[i:] + v[:i] for v in (w, fpgroup.inverse_word(w))
                   for i in range(len(v)))

    assert _classes(3, words) == (
        Presentation(generator_count=3, relators=tuple(
            sorted(dict.fromkeys(map(least, words)), key=len))),
        (1, 2, 3))


def test_simplify_kills_on_entry_and_stops_reading():
    # x2 is dead on entry, so x1 x2 kills x1 and x2 x3 kills x3; no
    # generator survives, and the stream is not read further
    read = []

    def stream():
        for w in ((1, 2), (2, 3), (1, 1, 1)):
            read.append(w)
            yield w

    assert fpgroup.simplify(3, stream(), killed={2}) == (
        Presentation(generator_count=0, relators=()), (0, 0, 0))
    assert read == [(1, 2), (2, 3)]
    # the survivors of a dead x1 are renumbered from 1
    assert _classes(3, [(1, 2, 3, 3)], killed={1}) == (
        Presentation(generator_count=2, relators=((-2, -2, -1),)),
        (0, 1, 2))


def test_simplify_keeps_squares_and_s3():
    # a relator g g names one generator: it eliminates nothing
    assert _classes(2, S3_PRESENTATION.relators) == (
        Presentation(generator_count=2,
                     relators=((-1, -1), (-2, -2), (-2, -1) * 3)),
        (1, 2))


def test_simplify_returns_the_survivors_as_last_read():
    # renumbered, exact duplicates dropped, rotations and inverses kept
    # until relator_classes keeps one of each class, shortest first
    relators = ((2, 3, 3), (3, 2, 3), (1, -1, -3, -3, -2), (2, 3, 3),
                (3, 3), (-3, -3, -2))
    pres, images = fpgroup.simplify(3, relators, killed={1})
    assert (pres, images) == (
        Presentation(generator_count=2, relators=(
            (1, 2, 2), (2, 1, 2), (-2, -2, -1), (2, 2))), (0, 1, 2))
    assert relator_classes(pres) == Presentation(
        generator_count=2, relators=((-2, -2), (-2, -2, -1)))
    assert fpgroup.abelian_invariants(pres) == fpgroup.abelian_invariants(
        relator_classes(pres))


def test_simplify_matches_the_reference_on_random_streams():
    # unreduced relators, read once as a stream, with generators killed
    # on entry: simplify's rotation classes and images are the
    # reference's, which read unsigned letters and reduced in two steps
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 6)
        letters = [x for g in range(1, n + 1) for x in (g, -g)]
        relators = [tuple(rng.choice(letters)
                          for _ in range(rng.randint(0, 6)))
                    for _ in range(rng.randint(0, 10))]
        killed = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
        assert _classes(n, iter(relators), killed) == simplify_reference(
            n, iter(relators), killed), (n, relators, killed)


def test_relator_classes_keep_the_other_fields():
    # the rotation classes, shortest first, and the presentation of
    # them keeps its type and its other fields
    pres = fpgroup.AdjointPresentation(
        generator_count=1, relators=((1, 1), (-1, -1), (1,)),
        generators=(0,), words=((1,),), tree=())
    assert tuple(fpgroup.rotation_classes(pres.relators)) == (
        (-1,), (-1, -1))
    classes = relator_classes(pres)
    assert type(classes) is fpgroup.AdjointPresentation
    assert classes == fpgroup.AdjointPresentation(
        generator_count=1, relators=((-1,), (-1, -1)), generators=(0,),
        words=((1,),), tree=())


def test_todd_coxeter_s3_trivial_subgroup():
    table = fpgroup.todd_coxeter(S3_PRESENTATION, [])
    assert table.coset_count == 6


def test_todd_coxeter_s3_index_three():
    table = fpgroup.todd_coxeter(S3_PRESENTATION, [(1,)])
    assert table.coset_count == 3


def test_todd_coxeter_cyclic():
    pres = Presentation(generator_count=1, relators=((1,) * 12,))
    assert fpgroup.todd_coxeter(pres, []).coset_count == 12
    assert fpgroup.todd_coxeter(pres, [(1, 1, 1)]).coset_count == 3


def test_todd_coxeter_quaternion_group():
    # <a, b | a^4, a^2 b^-2, b^-1 a b a> has order 8
    pres = Presentation(
        generator_count=2,
        relators=((1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)))
    assert fpgroup.todd_coxeter(pres, []).coset_count == 8


def test_todd_coxeter_budget():
    # free group on two generators: enumeration cannot finish
    free = Presentation(generator_count=2, relators=())
    with pytest.raises(BudgetExceeded):
        fpgroup.todd_coxeter(free, [], budget=100)


def test_coset_table_action_is_consistent():
    table = fpgroup.todd_coxeter(S3_PRESENTATION, [])
    for c in range(table.coset_count):
        for g in (1, 2):
            assert table.apply_letter(table.apply_letter(c, g), -g) == c
        # relators act trivially
        for r in S3_PRESENTATION.relators:
            assert trace(table, c, r) == c


def test_representative_words_reach_their_cosets():
    table = fpgroup.todd_coxeter(S3_PRESENTATION, [])
    for c in range(table.coset_count):
        assert trace(table, 0, table.representative_word[c]) == c


# ---------------------------------------------------------------------------
# Smith normal form; the oracles are the gcd-of-minors formula and the
# Smith normal form with its unimodular transforms


def _minor_gcd_invariants(matrix):
    """Invariant factors via d_k = gcd of all k x k minors."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0

    def det(sub):
        if len(sub) == 1:
            return sub[0][0]
        total = 0
        for j in range(len(sub)):
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    from math import gcd
    factors = []
    previous = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[matrix[i][j] for j in csel] for i in rsel]
                g = gcd(g, det(sub))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


def test_snf_known_example():
    assert fpgroup.smith_normal_form([[6, 4], [0, 4]]) == [2, 12]
    s, u, v = smith_normal_form_with_transforms([[6, 4], [0, 4]])
    assert (s[0][0], s[1][1]) == (2, 12)


def _check_transforms(m):
    """The oracle's nonzero diagonal, after checking U*M*V == S, S
    diagonal and nonnegative, and the divisibility chain."""
    rows, cols = len(m), len(m[0])
    s, u, v = smith_normal_form_with_transforms(m)
    # u * m * v == s, exactly
    um = [[sum(u[i][k] * m[k][j] for k in range(rows))
           for j in range(cols)] for i in range(rows)]
    umv = [[sum(um[i][k] * v[k][j] for k in range(cols))
            for j in range(cols)] for i in range(rows)]
    assert umv == [list(r) for r in s]
    # diagonal, nonnegative, divisibility chain
    diag = [s[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert s[i][j] == 0
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return nonzero


def test_snf_transform_roundtrip_random():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        nonzero = _check_transforms(m)
        # agree with the independent minor-gcd computation
        assert nonzero == _minor_gcd_invariants(m)
        assert fpgroup.smith_normal_form(m) == nonzero


def test_snf_sparse_agrees_with_dense():
    rng = random.Random(13)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.choice([-1, 0, 0, 1, 2]) for _ in range(cols)]
             for _ in range(rows)]
        entries = {(i, j): m[i][j] for i in range(rows)
                   for j in range(cols) if m[i][j]}
        sparse = fpgroup._snf_invariants_sparse(entries)
        assert list(sparse) == _minor_gcd_invariants(m)


def test_snf_pivot_paths(monkeypatch):
    # sparse integer matrices up to 30x30 (a third up to 5x5), mostly
    # +-1 with some 2, 3 and 6, against the transform-tracking oracle
    # and, up to 5x5, the minor gcds; every pivot path must be reached
    dense_shapes = []
    dense = fpgroup.smith_normal_form

    def recording(matrix):
        dense_shapes.append((len(matrix), len(matrix[0])))
        return dense(matrix)

    monkeypatch.setattr(fpgroup, "smith_normal_form", recording)
    rng = random.Random(20261018)
    seen = dict.fromkeys(("single", "fallback", "no unit", "zero row",
                          "wide remainder", "minors"), 0)
    for k in range(300):
        size = 5 if k % 3 == 0 else 30
        rows, cols = rng.randint(1, size), rng.randint(1, size)
        units = 0.0 if k % 5 == 0 else rng.choice((0.5, 0.8, 0.95))
        density = rng.uniform(0.05, 0.3)
        m = [[0] * cols for _ in range(rows)]
        for row in m:
            if rng.random() < 0.1:
                continue  # zero row
            for j in range(cols):
                if rng.random() < density:
                    row[j] = (rng.choice((1, -1)) if rng.random() < units
                              else rng.choice((2, 3, 6)) * rng.choice((1, -1)))
        nonzero = [[a for a in row if a] for row in m]
        unit_rows = [[abs(a) == 1 for a in row] for row in nonzero]
        if any(flags == [True] for flags in unit_rows):
            seen["single"] += 1
        elif any(any(flags) for flags in unit_rows):
            seen["fallback"] += 1  # the first pivot is the fallback
        elif any(nonzero):
            seen["no unit"] += 1
        seen["zero row"] += any(not row for row in nonzero)

        want = _check_transforms(m)
        entries = {(i, j): m[i][j] for i in range(rows)
                   for j in range(cols) if m[i][j]}
        dense_shapes.clear()
        assert fpgroup._snf_invariants_sparse(entries) == want, m
        seen["wide remainder"] += any(c > 1 for _, c in dense_shapes)
        assert dense(m) == want, m
        if rows <= 5 and cols <= 5:
            seen["minors"] += 1
            assert want == _minor_gcd_invariants(m), m
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# abelian invariants


def test_invariants_validation():
    with pytest.raises(ValueError):
        AbelianInvariants(free_rank=0, torsion=(4, 2))
    inv = AbelianInvariants(free_rank=1, torsion=(2, 4))
    assert inv.order is None or inv.order == 0  # infinite


def test_abelian_invariants_of_s3_presentation():
    inv = fpgroup.abelian_invariants(S3_PRESENTATION)
    assert inv.free_rank == 0
    assert inv.torsion == (2,)


def test_abelian_invariants_of_free_group():
    free = Presentation(generator_count=3, relators=())
    inv = fpgroup.abelian_invariants(free)
    assert inv.free_rank == 3
    assert inv.torsion == ()


def test_tietze_invariance():
    # adding a redundant relator or a killed generator changes nothing
    base = fpgroup.abelian_invariants(S3_PRESENTATION)
    redundant = Presentation(
        generator_count=2,
        relators=S3_PRESENTATION.relators + ((1, 1, 1, 1),))
    assert fpgroup.abelian_invariants(redundant) == base
    extended = Presentation(
        generator_count=3,
        relators=S3_PRESENTATION.relators + ((3, -1, -2),))
    assert fpgroup.abelian_invariants(extended) == base


def test_count_homs_to_abelian():
    z = AbelianInvariants(free_rank=1, torsion=())
    z2 = AbelianInvariants(free_rank=0, torsion=(2,))
    z6 = AbelianInvariants(free_rank=0, torsion=(6,))
    z2xz4 = AbelianInvariants(free_rank=0, torsion=(2, 4))
    assert count_homs_to_abelian(z, z6) == 6
    assert count_homs_to_abelian(z2, z6) == 2
    assert count_homs_to_abelian(z6, z2) == 2
    # gcd(2,2)*gcd(2,4) choices for the Z2 part, gcd(4,2)*gcd(4,4) for Z4
    assert count_homs_to_abelian(z2xz4, z2xz4) == 32
    assert count_homs_to_abelian(z2, z2xz4) == 4


def test_enumerate_homs_matches_count():
    # homs S3 -> Z6 as a Cayley table; only the sign map survives, as
    # the count through S3^ab = Z2 says
    homs = enumerate_homs(S3_PRESENTATION, cyclic_table(6))
    assert len(homs) == 2 == count_homs_to_abelian(
        fpgroup.abelian_invariants(S3_PRESENTATION),
        AbelianInvariants(free_rank=0, torsion=(6,)))


def test_adjoint_presentation_shape():
    quandle = qmod.dihedral(3)
    assert quandle.generators == (0, 1)
    pres = quandle.adjoint
    assert pres.generators == (0, 1)
    words = pres.words
    # e_2 = e_1^-1 e_0 e_1, as 0*1 = 2
    assert words == ((1,), (2,), (-2, 1, 2))
    assert pres.tree == ((2, 0, 1),)
    assert pres.generator_count == 2
    # one relator per pair (a, s) with s in S, less the pairs a = s and
    # the definition: n*|S| - |S| - (n - |S|) = 3*2 - 2 - 1
    assert len(pres.relators) == 3
    # modding out <e_0> leaves index |Adj degree-zero| = 3 for D3
    table = fpgroup.todd_coxeter(pres, [words[0]])
    assert table.coset_count == 3


def _element_letters(gens, word):
    """A word over gens rewritten in element letters."""
    return tuple(gens[abs(k) - 1] + 1 if k > 0
                 else -(gens[abs(k) - 1] + 1) for k in word)


def test_adjoint_presentation_matches_the_full_one(corpus):
    # the presentation on S presents the group of all n(n-1) relators:
    # each e_x equals its word w_x and each relator on S holds in the
    # full group, and the index of <e_q> is the same on every connected
    # corpus quandle
    connected = 0
    for name, quandle in corpus:
        if not quandle.is_connected():
            continue
        connected += 1
        pres = quandle.adjoint
        words, gens = pres.words, pres.generators
        full = full_adjoint_presentation(quandle)
        assert pres.generator_count == len(gens), name
        assert len(pres.relators) <= quandle.n * (len(gens) - 1)
        q = quandle.basepoints[0]
        small = fpgroup.todd_coxeter(pres, [words[q]], budget=20000)
        large = todd_coxeter_reference(full, [(q + 1,)], budget=20000)
        assert small.coset_count == large.coset_count, name
        for c in range(large.coset_count):
            for x in range(quandle.n):
                assert trace(large, c, (x + 1,)) == trace(
                    large, c, _element_letters(gens, words[x])), name
            for r in pres.relators:
                assert trace(large, c, _element_letters(gens, r)) == c
    assert connected >= 30


def test_adjoint_presentation_is_the_normalize_reference(corpus):
    # the words, built with no reduction, and the relators, reduced by
    # cutting a common suffix, are the letter-by-letter free reductions,
    # field by field and in order, on validate's generating set and on
    # the adjoint's own
    inputs = corpus + [(f"conj(S{m},transposition)",
                        transposition_quandle(m)) for m in (4, 5, 6, 7)]
    inputs.append(("conj(S5,3-cycle)", qmod.conj_class(
        symmetric_group(5), (1, 2, 0, 3, 4))))
    inputs += [(f"dihedral({n})", qmod.dihedral(n)) for n in (45, 91)]
    for name, quandle in inputs:
        for gens in (quandle.generators, quandle.adjoint.generators):
            got = fpgroup.adjoint_presentation(quandle, gens)
            want = adjoint_presentation_reference(quandle, gens)
            for field in ("generators", "words", "tree", "relators"):
                assert getattr(got, field) == getattr(want, field), (
                    name, gens, field)
    assert len(inputs) == 95


def _outcome(enumerate_, presentation, subgroup, budget):
    try:
        return enumerate_(presentation, subgroup, budget=budget)
    except BudgetExceeded as exc:
        return ("budget", exc.reached, exc.what)


def _same_as_reference(presentation, subgroup, budget):
    got = _outcome(fpgroup.todd_coxeter, presentation, subgroup, budget)
    want = _outcome(todd_coxeter_reference, presentation, subgroup, budget)
    assert got == want
    return got


def test_todd_coxeter_matches_the_reference_on_small_groups():
    quaternion = Presentation(
        generator_count=2,
        relators=((1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)))
    cyclic = Presentation(generator_count=1, relators=((1,) * 12,))
    free = Presentation(generator_count=2, relators=())
    for pres, subgroup in ((S3_PRESENTATION, []), (S3_PRESENTATION, [(1,)]),
                           (cyclic, []), (cyclic, [(1, 1, 1)]),
                           (quaternion, []), (quaternion, [(1, 1)])):
        for budget in (3000, 20000):
            assert not isinstance(
                _same_as_reference(pres, subgroup, budget), tuple)
    for budget in (1, 100, 3000):
        assert _same_as_reference(free, [], budget) == (
            "budget", budget, "coset enumeration")


def test_todd_coxeter_matches_the_reference_on_adjoint_groups(corpus):
    # the same CosetTable, or the same BudgetExceeded, on the full and
    # the S-only adjoint presentations modulo the basepoint generator.
    # Every corpus quandle runs at budget 3000; at 20000 the connected
    # ones and two disconnected ones do, as each disconnected input
    # runs to the budget and all of them would take some 40 s
    hits = 0
    for name, quandle in corpus:
        q = quandle.basepoints[0]
        adjoint = quandle.adjoint
        budgets = ((3000, 20000) if quandle.is_connected()
                   or name in ("trivial(2)", "dihedral(4)") else (3000,))
        for pres, subgroup in (
                (full_adjoint_presentation(quandle), [(q + 1,)]),
                (adjoint, [adjoint.words[q]])):
            for budget in budgets:
                got = _same_as_reference(pres, subgroup, budget)
                hits += isinstance(got, tuple)
    assert hits >= 2 * 51 + 2 * 2
