import random
from itertools import product

import pytest

from quandelier import (cohomology as coh, fpgroup, fundamental as fund,
                        permgroup, quandle as qmod)
from quandelier.errors import BudgetExceeded
from conftest import (cayley_table, disjoint_union, relabelled_coeff,
                      symmetric_group, transposition_quandle)
from oracles import (cocycle_violation, cohomology_classes,
                     count_homs_to_abelian, enumerate_cocycles,
                     equivalence_by_propagation, path_complex_h2,
                     pullback_cocycle)

Z2 = coh.Coeff.from_invariants([2])
Z3 = coh.Coeff.from_invariants([3])
Z4 = coh.Coeff.from_invariants([4])


# ---------------------------------------------------------------------------
# coefficient groups


def test_coeff_from_invariants():
    z6 = coh.Coeff.from_invariants([6])
    assert z6.order == 6
    assert z6.abelian
    assert z6.mul(4, 5) == 3
    assert z6.inv(2) == 4


def test_coeff_product_group():
    z2xz2 = coh.Coeff.from_invariants([2, 2])
    assert z2xz2.order == 4
    assert all(z2xz2.mul(a, a) == z2xz2.identity for a in range(4))


def test_coeff_from_table_validates():
    with pytest.raises(ValueError):
        coh.Coeff.from_table([[0, 1], [1, 1]], 0)
    z3 = coh.Coeff.from_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0)
    assert z3.order == 3
    assert z3.abelian
    # -1 would be read as the last element, which is the identity here
    flipped = [[1, 0], [0, 1]]
    assert coh.Coeff.from_table(flipped, 1).inverses == (0, 1)
    for identity in (2, 5, -1):
        with pytest.raises(ValueError, match="outside the group"):
            coh.Coeff.from_table(flipped, identity)


def test_coeff_nonabelian_table():
    # S3 as a multiplication table
    group = symmetric_group(3)
    s3 = coh.Coeff.from_table(cayley_table(group), group.identity_index)
    assert not s3.abelian
    with pytest.raises(ValueError, match="abelian"):
        coh.h2_with_coefficients(qmod.dihedral(3), s3)
    # the inverses read off once agree with group inversion
    for a in range(6):
        assert group.elements[s3.inv(a)] == permgroup.inverse(
            group.elements[a])
        assert s3.mul(a, s3.inv(a)) == s3.identity


def _chains(limit, least=1):
    """Every invariant-factor chain of order <= limit, () included."""
    yield ()
    for d in range(2, limit + 1):
        if d % least == 0:
            for rest in _chains(limit // d, d):
                yield (d, *rest)


def test_hom_count_matches_the_gcd_formula():
    # on every abelian group of order <= 64, by spec and as a table
    # group, with sources of free rank 0-2 and each torsion shape
    rng = random.Random(22)
    chains = list(_chains(64))
    assert len(chains) == 117
    sources = [fpgroup.AbelianInvariants(rank, torsion)
               for rank in range(3)
               for torsion in ((), (2,), (2, 4), (6,), (60,), (2, 2, 2))]
    for chain in chains:
        target = fpgroup.AbelianInvariants(0, chain)
        spec = coh.Coeff.from_invariants(chain)
        table = relabelled_coeff(spec, rng)
        assert table.identity != 0 or spec.order == 1
        for lam in (spec, table):
            for src in sources:
                assert lam.hom_count(src) == count_homs_to_abelian(
                    src, target), (chain, src)


# ---------------------------------------------------------------------------
# integral H2; oracle values are classical


def test_h2_trivial_for_odd_dihedral():
    for n in (3, 5, 7, 9, 91):
        (inv,) = coh.h2_integral(qmod.dihedral(n))
        assert inv.free_rank == 0
        assert inv.torsion == ()


def test_h2_of_symmetric_group_quandles():
    for n in (4, 5):
        (inv,) = coh.h2_integral(transposition_quandle(n))
        assert inv.free_rank == 0
        assert inv.torsion == (2,)


def test_h2_of_q_mn_family():
    for m, n in ((1, 1), (3, 2), (2, 2)):
        from math import gcd
        want = gcd(m, n)
        for inv in coh.h2_integral(qmod.q_mn(m, n)):
            assert inv.free_rank == 1
            assert inv.torsion == ((want,) if want > 1 else ())


def test_h2_matches_hurewicz_on_small_cases():
    # criterion 4 makes the same comparison over the whole corpus
    for quandle in (qmod.dihedral(4), qmod.trivial(3), qmod.q_mn(2, 1),
                    transposition_quandle(6)):
        assert coh.h2_integral(quandle) == path_complex_h2(
            quandle.op, quandle.grading)
    # components with different H2, as in the corpus's unions: each
    # must be read at its own basepoint
    quandle = disjoint_union(transposition_quandle(4), qmod.dihedral(3))
    assert coh.h2_integral(quandle) == [
        fpgroup.AbelianInvariants(free_rank=1, torsion=(2,)),
        fpgroup.AbelianInvariants(free_rank=1, torsion=())]
    for first, second in ((transposition_quandle(4), qmod.dihedral(3)),
                          (transposition_quandle(4), qmod.dihedral(5)),
                          (qmod.q_mn(2, 2), qmod.dihedral(5)),
                          (qmod.dihedral(5), qmod.q_mn(2, 2))):
        quandle = disjoint_union(first, second)
        h2 = coh.h2_integral(quandle)
        assert len(set(h2)) > 1
        assert h2 == path_complex_h2(quandle.op, quandle.grading)


def test_h2_and_pi1_order_survive_relabelling(corpus):
    # the spanning tree depends on the labels; the invariants may not
    rng = random.Random(20261018)
    for name, quandle in corpus:
        n = quandle.n
        sigma = list(range(n))
        rng.shuffle(sigma)
        op = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                op[sigma[a]][sigma[b]] = sigma[quandle.op[a][b]]
        relabelled = qmod.validate(op)
        h2, h2_relabelled = (coh.h2_integral(quandle),
                             coh.h2_integral(relabelled))
        assert len(h2_relabelled) == len(h2), name
        for i, q in enumerate(quandle.basepoints):
            component = relabelled.grading[sigma[q]]
            assert h2_relabelled[component] == h2[i], name
        orders = [fund.fundamental_group(x, x.basepoints[0],
                                         budget=20000).order
                  for x in (quandle, relabelled)]
        assert orders[0] == orders[1], name
        assert (orders[0] is None) == (len(h2) > 1), name


# ---------------------------------------------------------------------------
# cocycles, coboundaries, classes


def test_trivial_cocycle_is_a_cocycle():
    quandle = qmod.dihedral(5)
    f = coh.trivial_cocycle(quandle, Z3)
    ok, witness = coh.is_cocycle(f, quandle, Z3)
    assert ok and witness is None


def test_is_cocycle_witness():
    quandle = qmod.dihedral(3)
    values = [[0] * 3 for _ in range(3)]
    values[0][1] = 1
    ok, witness = coh.is_cocycle(values, quandle, Z2)
    assert not ok
    assert witness is not None


def _s3():
    group = symmetric_group(3)
    return coh.Coeff.from_table(cayley_table(group), group.identity_index)


def test_cocycle_verdict_on_s_matches_the_full_check(corpus):
    # checking c in S accepts exactly the cochains the n^3 check
    # accepts, with abelian, non-abelian and graded coefficients; a
    # rejection names a real violation, with c in S off the diagonal
    rng = random.Random(20261018)
    s3 = _s3()
    verdicts = set()
    for name, quandle in corpus:
        n, gr = quandle.n, quandle.grading
        graded = [(Z2, s3, Z3)[i % 3] for i in range(quandle.component_count)]
        for coeffs in (Z3, s3, graded):
            coeffs = coh.graded_coefficients(quandle, coeffs)
            orders = [coeffs[gr[a]].order for a in range(n)]
            for _ in range(3):
                bound = [list(row) for row in coh.coboundary(
                    quandle, coeffs,
                    [rng.randrange(k) for k in orders])]
                noise = [[coeffs[gr[a]].identity if a == b
                          else rng.randrange(orders[a]) for b in range(n)]
                         for a in range(n)]
                bent = [row[:] for row in bound]
                a, b = rng.randrange(n), rng.randrange(n)
                if a != b:
                    bent[a][b] = (bent[a][b] + 1) % orders[a]
                for values in (bound, noise, bent):
                    ok, witness = coh.is_cocycle(values, quandle, coeffs)
                    assert ok == (cocycle_violation(values, quandle, coeffs)
                                  is None), name
                    verdicts.add(ok)
                    if ok:
                        continue
                    a, b, c = witness
                    lam = coeffs[gr[a]]
                    if a == b == c:
                        assert values[a][a] != lam.identity, name
                        continue
                    assert c in quandle.generators, name
                    op = quandle.op
                    assert (lam.mul(values[a][b], values[op[a][b]][c])
                            != lam.mul(values[a][c],
                                       values[op[a][c]][op[b][c]])), name
    assert verdicts == {True, False}


def test_coboundaries_are_cocycles():
    quandle = transposition_quandle(4)
    for g in ((0,) * 6, (1, 0, 1, 0, 1, 0), (1, 1, 1, 1, 1, 1)):
        f = coh.coboundary(quandle, Z2, g)
        assert coh.is_cocycle(f, quandle, Z2)[0]
        assert coh.are_cohomologous(
            f, coh.trivial_cocycle(quandle, Z2), quandle, Z2) is not None


def test_dihedral3_z2_trilogy_counts():
    quandle = qmod.dihedral(3)
    reps, cocycles = cohomology_classes(quandle, Z2)
    assert len(cocycles) == 4
    assert len(reps) == 1
    triv = coh.trivial_cocycle(quandle, Z2)
    coboundaries = [f for f in cocycles
                    if coh.are_cohomologous(f, triv, quandle, Z2)]
    assert len(coboundaries) == 4


def test_class_count_equals_hom_count():
    for quandle, lam in ((qmod.dihedral(3), Z2), (qmod.dihedral(3), Z3),
                         (qmod.dihedral(3), Z4)):
        reps, _ = cohomology_classes(quandle, lam)
        ((_, count),) = coh.h2_with_coefficients(quandle, lam)
        assert len(reps) == count


def test_s4_quandle_has_two_classes_over_z2():
    ((inv, count),) = coh.h2_with_coefficients(transposition_quandle(4), Z2)
    assert count == 2


def test_enumerate_cocycles_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_cocycles(transposition_quandle(4), Z2, budget=1000)


def _homs_to_cyclic(pi1, k):
    """Every hom pi_1 -> Z_k on pi_1's elements: each choice of images
    of its generators, read along the representative words, that
    respects the Cayley table."""
    table, mul = pi1.regular, pi1.cayley
    out = []
    for images in product(range(k), repeat=table.generator_count):
        hom = [sum(images[x - 1] if x > 0 else -images[-x - 1]
                   for x in word) % k for word in table.representative_word]
        if all(hom[mul[g][h]] == (hom[g] + hom[h]) % k
               for g in range(pi1.order) for h in range(pi1.order)):
            out.append(hom)
    return out


def _is_rescaling(g, f, f2, quandle, lam):
    """f(a,b) = g(a)^-1 f2(a,b) g(a*b) on every pair (a, b)."""
    op = quandle.op
    return all(f[a][b] == lam.mul(lam.mul(lam.inv(g[a]), f2[a][b]),
                                  g[op[a][b]])
               for a in range(quandle.n) for b in range(quandle.n))


def test_are_cohomologous_returns_valid_rescaling(corpus):
    # on every corpus quandle, with Z2 and Z3: the trivial cocycle, the
    # cocycle of each hom pi_1 -> Lambda on a connected one, and every
    # cocycle of a tiny one, each against a rescaling of itself and
    # against the first; the search propagates along S only, and a g
    # it returns is checked on every pair, a None by trying every g
    rng, verdicts = random.Random(29), [0, 0]
    for name, quandle in corpus:
        n = quandle.n
        for lam in (Z2, Z3):
            cocycles = [coh.trivial_cocycle(quandle, lam)]
            if quandle.is_connected():
                pi1 = fund.fundamental_group(quandle, quandle.basepoints[0])
                cocycles += [coh.cocycle_from_hom(quandle, lam, hom)
                             for hom in _homs_to_cyclic(pi1, lam.order)]
            if lam.order ** (n * n - n) <= 1 << 12:
                cocycles = enumerate_cocycles(quandle, lam)
            for f2 in cocycles:
                g = [rng.randrange(lam.order) for _ in range(n)]
                rescaled = _rescaled(quandle, lam, f2, g)
                found = coh.are_cohomologous(rescaled, f2, quandle, lam)
                assert _is_rescaling(found, rescaled, f2, quandle, lam), name
                found = coh.are_cohomologous(f2, cocycles[0], quandle, lam)
                if found is not None:
                    assert _is_rescaling(found, f2, cocycles[0], quandle,
                                         lam), name
                elif lam.order ** n <= 729:
                    assert not any(
                        _is_rescaling(h, f2, cocycles[0], quandle, lam)
                        for h in product(range(lam.order), repeat=n)), name
                verdicts[found is None] += 1
    assert min(verdicts) > 100, verdicts


# ---------------------------------------------------------------------------
# extensions


def _nontrivial_s4_cocycle():
    quandle = transposition_quandle(4)
    # pi_1 = Z2: the hom onto Z2 sends all but the identity 0 to 1
    order = fund.universal_cover(quandle).pi1.order
    hom = [0 if k == 0 else 1 for k in range(order)]
    return quandle, coh.cocycle_from_hom(quandle, Z2, hom), hom


def test_extension_from_trivial_cocycle_splits():
    quandle = qmod.dihedral(3)
    ext = coh.extension_from_cocycle(quandle, Z2,
                                     coh.trivial_cocycle(quandle, Z2))
    assert ext.total.n == 6
    assert coh.check_extension(ext) == (True, None)
    # the split extension is two disjoint copies of the base; note the
    # grading stays the coarser pulled-back one, so count actual orbits
    parts, _ = qmod.components(ext.total)
    assert len(parts) == 2


def test_extension_from_nontrivial_cocycle_is_connected():
    quandle, f, _ = _nontrivial_s4_cocycle()
    ext = coh.extension_from_cocycle(quandle, Z2, f)
    assert ext.total.n == 12
    assert coh.check_extension(ext) == (True, None)
    parts, _ = qmod.components(ext.total)
    assert len(parts) == 1
    assert qmod.is_covering(ext.projection)[0]


def test_cocycle_extension_roundtrip():
    quandle, f, _ = _nontrivial_s4_cocycle()
    ext = coh.extension_from_cocycle(quandle, Z2, f)
    back = coh.cocycle_from_extension(ext)
    assert coh.are_cohomologous(f, back, quandle, Z2) is not None


def test_cocycle_is_read_back_off_its_extension(corpus):
    # Lambda x_f Q's least-element section is (e, a), so the cocycle read
    # off it is f itself, as the same plain rows: the trivial cocycle, a
    # coboundary, the cocycle of each hom pi_1 -> Z2, and pi_1's own
    # cocycle over pi_1's table, on every connected corpus quandle
    checked = 0
    for name, quandle in corpus:
        if not quandle.is_connected():
            continue
        pi1 = fund.fundamental_group(quandle, quandle.basepoints[0])
        g = tuple(a % 3 for a in range(quandle.n))
        pairs = [(Z2, coh.trivial_cocycle(quandle, Z2)),
                 (Z3, coh.coboundary(quandle, Z3, g)),
                 (coh.Coeff.from_table(pi1.cayley, 0), pi1.cocycle)]
        pairs += [(Z2, coh.cocycle_from_hom(quandle, Z2, hom))
                  for hom in _homs_to_cyclic(pi1, 2)]
        for lam, f in pairs:
            ext = coh.extension_from_cocycle(quandle, lam, f)
            back = coh.cocycle_from_extension(ext)
            assert type(back) is tuple and back == f, name
        checked += 1
    assert checked >= 30


def test_cocycle_from_extension_rejects_an_intransitive_action():
    # an action fixing every element has the section as its only
    # orbits, and this coboundary's s(0)*s(1) = (1, 2) lies off them
    quandle = qmod.dihedral(3)
    ext = coh.extension_from_cocycle(
        quandle, Z2, coh.coboundary(quandle, Z2, (0, 1, 1)))
    fixed = coh.Extension(
        total=ext.total, projection=ext.projection, coeffs=ext.coeffs,
        action=((tuple(range(ext.total.n)),) * 2,))
    assert not coh.check_extension(fixed)[0]
    with pytest.raises(ValueError, match="fibre action misses the product"):
        coh.cocycle_from_extension(fixed)


def test_hom_extension_roundtrip():
    quandle, f, hom = _nontrivial_s4_cocycle()
    ext = coh.extension_from_cocycle(quandle, Z2, f)
    assert coh.hom_from_extension(ext) == hom


def test_equivalence_respects_cohomology_classes():
    quandle = qmod.dihedral(3)
    _, cocycles = cohomology_classes(quandle, Z3)
    exts = [coh.extension_from_cocycle(quandle, Z3, f) for f in cocycles]
    # every pair is cohomologous over D3/Z3 (one class), hence equivalent
    for other in exts[1:]:
        assert coh.are_equivalent_extensions(exts[0], other) is not None


def test_inequivalent_extensions_detected():
    quandle, f, _ = _nontrivial_s4_cocycle()
    e1 = coh.extension_from_cocycle(quandle, Z2, f)
    e0 = coh.extension_from_cocycle(quandle, Z2,
                                    coh.trivial_cocycle(quandle, Z2))
    assert coh.are_equivalent_extensions(e0, e1) is None


def _is_equivalence(mapping, e1, e2):
    """A bijection over the base that respects the operation and the
    Lambda action."""
    n = e1.total.n
    if sorted(mapping) != list(range(n)):
        return False
    if any(e2.projection.map[mapping[x]] != e1.projection.map[x]
           for x in range(n)):
        return False
    if any(mapping[e1.total.op[x][y]] != e2.total.op[mapping[x]][mapping[y]]
           for x in range(n) for y in range(n)):
        return False
    return all(mapping[perm[x]] == e2.action[i][k][mapping[x]]
               for i, perms in enumerate(e1.action)
               for k, perm in enumerate(perms) for x in range(n))


def _compare_equivalence_searches(pairs):
    """The class computation and the propagation search agree, and
    each map they return is an equivalence; returns the verdicts."""
    verdicts = []
    for e1, e2 in pairs:
        found = coh.are_equivalent_extensions(e1, e2)
        searched = equivalence_by_propagation(e1, e2)
        assert (found is None) == (searched is None)
        for mapping in (found, searched):
            if mapping is not None:
                assert _is_equivalence(mapping, e1, e2)
        verdicts.append(found is not None)
    return verdicts


def _rescaled(quandle, lam, f, g):
    """The cocycle g(a) f(a,b) g(a*b)^-1, cohomologous to f."""
    return tuple(
        tuple(lam.mul(lam.mul(g[a], f[a][b]),
                      lam.inv(g[quandle.op[a][b]]))
              for b in range(quandle.n))
        for a in range(quandle.n))


def test_equivalence_matches_the_propagation_search(corpus):
    # criterion 5 inputs: each cocycle against each class
    # representative, exactly one pair equivalent
    checked = 0
    for name, quandle in corpus:
        if not quandle.is_connected():
            continue
        for lam in (Z2, Z3, Z4):
            if lam.order ** (quandle.n * quandle.n - quandle.n) > 1 << 14:
                continue
            reps, cocycles = cohomology_classes(quandle, lam)
            exts = [coh.extension_from_cocycle(quandle, lam, f)
                    for f in reps]
            for f in cocycles:
                ext = coh.extension_from_cocycle(quandle, lam, f)
                verdicts = _compare_equivalence_searches(
                    [(ext, e) for e in exts])
                assert verdicts.count(True) == 1, name
            checked += 1
    assert checked >= 3

    # criterion 7 inputs: the two homs pi_1 = Z2 -> Z2 of the S4
    # transposition quandle, each also with a rescaled cocycle
    quandle = transposition_quandle(4)
    order = fund.universal_cover(quandle).pi1.order
    exts = []
    for image in range(2):
        hom = [0 if k == 0 else image for k in range(order)]
        f = coh.cocycle_from_hom(quandle, Z2, hom)
        exts.append(coh.extension_from_cocycle(quandle, Z2, f))
        exts.append(coh.extension_from_cocycle(
            quandle, Z2, _rescaled(quandle, Z2, f, (1, 0, 0, 1, 1, 0))))
    verdicts = _compare_equivalence_searches(
        [(e1, e2) for e1 in exts for e2 in exts])
    assert verdicts == [i // 2 == j // 2 for i in range(4) for j in range(4)]

    # non-abelian coefficients: pi_1 = Z2 sent to a transposition of
    # S3; conjugate homs and a rescaled cocycle give equivalent
    # extensions, the trivial hom not
    s3 = _s3()
    e = s3.identity
    involutions = [x for x in range(6) if x != e and s3.mul(x, x) == e]
    cocycles = []
    for image in [e] + involutions[:2]:
        hom = [e if k == 0 else image for k in range(order)]
        cocycles.append(coh.cocycle_from_hom(quandle, s3, hom))
    g = tuple(involutions[0] if a % 2 else e for a in range(quandle.n))
    cocycles.append(_rescaled(quandle, s3, cocycles[1], g))
    exts = [coh.extension_from_cocycle(quandle, s3, f) for f in cocycles]
    verdicts = _compare_equivalence_searches(
        [(exts[0], exts[1]), (exts[1], exts[2]), (exts[1], exts[3]),
         (exts[2], exts[3]), (exts[0], exts[0])])
    assert verdicts == [False, True, True, True, True]


def test_cohomology_search_covers_every_orbit_of_a_grading_class():
    # the total of the split Z2 extension of D3 is two copies of D3 in
    # one grading class; a rescaling is searched on each orbit
    d3 = qmod.dihedral(3)
    total = coh.extension_from_cocycle(d3, Z2,
                                       coh.trivial_cocycle(d3, Z2)).total
    assert total.component_count == 1
    assert len(qmod.components(total)[0]) == 2
    triv = coh.trivial_cocycle(total, Z3)
    assert coh.are_cohomologous(triv, triv, total, Z3) == (0,) * total.n
    rescaled = _rescaled(total, Z3, triv, (1, 2, 0, 0, 1, 1))
    g = coh.are_cohomologous(rescaled, triv, total, Z3)
    assert coh.coboundary(total, Z3, g) == rescaled
    # 1 on the pairs across the two orbits: a cocycle, as a*b stays in
    # a's orbit, but no coboundary, as a*a' = a for a' the copy of a
    orbit = qmod.components(total)[1]
    across = tuple(
        tuple(int(orbit[a] != orbit[b]) for b in range(total.n))
        for a in range(total.n))
    assert coh.is_cocycle(across, total, Z3)[0]
    assert coh.are_cohomologous(across, triv, total, Z3) is None
    exts = [coh.extension_from_cocycle(total, Z3, f)
            for f in (triv, rescaled, across)]
    verdicts = _compare_equivalence_searches(
        [(e1, e2) for e1 in exts for e2 in exts])
    assert verdicts == [i // 2 == j // 2 for i in range(3) for j in range(3)]
    assert coh.are_equivalent_extensions(exts[0], exts[0]) == tuple(
        range(exts[0].total.n))


def test_pullback_cocycle_naturality():
    d8, d4 = qmod.dihedral(8), qmod.dihedral(4)
    p = qmod.QuandleHom(d8, d4, tuple(a % 4 for a in range(8)))
    _, cocycles = cohomology_classes(d4, Z2)
    for f in cocycles:
        back, coeffs = pullback_cocycle(p, f, Z2)
        assert coh.is_cocycle(back, d8, coeffs)[0]


def test_check_extension_rejects_an_action_reversed_on_one_fibre():
    # k acting as -k over one base element is still a free transitive
    # Z3 action that keeps fibres, but it breaks left equivariance;
    # checking y in S catches it as the full check would
    quandle = qmod.dihedral(3)
    for f in (coh.trivial_cocycle(quandle, Z3),
              coh.coboundary(quandle, Z3, (0, 1, 2))):
        ext = coh.extension_from_cocycle(quandle, Z3, f)
        fibre = ext.projection.fibre(1)
        action = tuple(
            tuple(ext.action[0][Z3.inv(k) if x in fibre else k][x]
                  for x in range(ext.total.n))
            for k in range(Z3.order))
        total = ext.total
        assert any(total.op[perm[x]][y] != perm[total.op[x][y]]
                   for perm in action for x in range(total.n)
                   for y in range(total.n))
        reversed_ = coh.Extension(total=total, projection=ext.projection,
                                  coeffs=ext.coeffs, action=(action,))
        assert coh.check_extension(reversed_) == (
            False, "(E1) left equivariance fails")


def test_cocycle_from_hom_builds_no_universal_cover(monkeypatch):
    # the cocycle needs pi_1's Cayley table and cocycle, not the
    # cover's N x N table
    quandle, f, hom = _nontrivial_s4_cocycle()

    def no_cover(*args, **kwargs):
        raise AssertionError("universal cover built")

    monkeypatch.setattr(fund, "universal_cover", no_cover)
    assert coh.cocycle_from_hom(quandle, Z2, hom) == f


def test_check_extension_rejects_broken_action():
    quandle = qmod.dihedral(3)
    ext = coh.extension_from_cocycle(quandle, Z2,
                                     coh.trivial_cocycle(quandle, Z2))
    broken = coh.Extension(
        total=ext.total, projection=ext.projection, coeffs=ext.coeffs,
        action=((tuple(range(ext.total.n)),) * 2,))
    ok, reason = coh.check_extension(broken)
    assert not ok
