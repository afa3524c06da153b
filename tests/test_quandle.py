import random
from collections import Counter

import pytest

import oracles
from quandelier import (cohomology as coh, fundamental as fund, permgroup,
                        quandle as qmod)
from quandelier.errors import (EmptyUnion, NotAHomomorphism, NotAQuandle,
                               NotRightInvertible)
from conftest import (cyclic_group, small_permutation_groups,
                      symmetric_group, transposition_quandle)


# ---------------------------------------------------------------------------
# validation


def test_validate_reports_q1():
    with pytest.raises(NotAQuandle) as info:
        qmod.validate([[1, 0], [1, 1]])
    assert info.value.axiom == "Q1"
    assert info.value.witness == (0,)


def test_validate_reports_q2():
    # column 0 repeats the value 0
    with pytest.raises(NotRightInvertible) as info:
        qmod.validate([[0, 0, 0], [0, 1, 1], [0, 2, 2]])
    assert info.value.axiom == "Q2"


def test_validate_q3_witness_is_concrete():
    # break Q3 in a 4-element table built from two valid columns
    table = [[0, 0, 1, 1], [1, 1, 0, 0], [3, 2, 2, 2], [2, 3, 3, 3]]
    with pytest.raises(NotAQuandle) as info:
        qmod.validate(table)
    a, b, c = info.value.witness
    op = table
    assert op[op[a][b]][c] != op[op[a][c]][op[b][c]]


def perturbed_tables(corpus, count, seed):
    """Relabelled corpus tables, most with entries swapped inside a
    column away from the diagonal, so Q1 and Q2 still hold."""
    rng = random.Random(seed)
    tables = []
    while len(tables) < count:
        _, quandle = rng.choice(corpus)
        n = quandle.n
        swaps = rng.choice((0, 1, 1, 2, 3))
        if swaps and n < 3:
            continue
        op = [list(row) for row in quandle.op]
        for _ in range(swaps):
            b = rng.randrange(n)
            x, y = rng.sample([a for a in range(n) if a != b], 2)
            op[x][b], op[y][b] = op[y][b], op[x][b]
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                relabelled[perm[a]][perm[b]] = perm[op[a][b]]
        tables.append(relabelled)
    return tables


def test_q3_verdict_matches_the_full_check(corpus):
    # Q3 on the generating set accepts exactly the tables the n^3 check
    # accepts, and every witness it reports is a real violation
    tables = [quandle.op for _, quandle in corpus]
    tables += perturbed_tables(corpus, 1200, seed=3)
    verdicts = Counter()
    for op in tables:
        expected = oracles.q3_violation(op)
        try:
            qmod.validate(op)
        except NotAQuandle as exc:
            assert exc.axiom == "Q3"
            assert expected is not None
            a, b, c = exc.witness
            assert op[op[a][b]][c] != op[op[a][c]][op[b][c]]
            verdicts["broken"] += 1
        else:
            assert expected is None
            verdicts["quandle"] += 1
    assert verdicts["broken"] >= 300 and verdicts["quandle"] >= 300


def _outcome(check, table, **kwargs):
    """The quandle a validator builds, or the class, axiom, witness and
    message of what it raises."""
    try:
        return check(table, **kwargs)
    except NotAQuandle as exc:
        return type(exc), exc.axiom, exc.witness, str(exc)


@pytest.fixture(scope="module")
def covering_tables(corpus, corpus_coverings):
    """(theorem-built quandle, validate keywords, size of its base) for
    the universal cover and every census quotient of each connected
    corpus quandle, a Z2 and a Z3 extension total of each, each corpus
    covering pulled back along its base's universal cover, and the
    union of each base's coverings."""
    out = [(p.source, {}, p.target.n) for _, p in corpus_coverings]
    for _, quandle in corpus:
        if not quandle.is_connected():
            continue
        for k in (2, 3):
            lam = coh.Coeff.from_invariants([k])
            g = tuple(a % k for a in range(quandle.n))
            total = coh.extension_from_cocycle(
                quandle, lam, coh.coboundary(quandle, lam, g)).total
            out.append((total, {"grading": total.grading,
                                "basepoints": total.basepoints},
                        quandle.n))
    by_base = {}
    for name, p in corpus_coverings:
        by_base.setdefault(name, []).append(p)
    for coverings in by_base.values():
        universal = coverings[0]
        out += [(qmod.pullback(p, universal)[0].source, {},
                 universal.source.n) for p in coverings]
        out.append((qmod.union_coverings(coverings).source, {},
                    coverings[0].target.n))
    return out


def test_validate_matches_the_rowwise_reference(corpus, covering_tables):
    # checking each distinct column once builds the same quandle as
    # checking every row and column, and so does from_columns, which
    # assembles the theorem-built tables without checking them
    for _, quandle in corpus:
        checked = qmod.validate(quandle.op)
        expected = oracles.validate_rowwise(quandle.op)
        assert checked == expected
        assert checked.generators == expected.generators
    for built, kwargs, base_size in covering_tables:
        # every field, and generators, derived when read
        expected = oracles.validate_rowwise(built.op, **kwargs)
        assert built == expected
        assert built.generators == expected.generators
        checked = qmod.validate(built.op, **kwargs)
        assert checked == expected
        assert checked.generators == expected.generators
        assert len(set(zip(*built.op))) <= base_size
    assert len(covering_tables) >= 200


def broken_covering_tables(op, rng):
    """Copies of a covering table with one defect each: a swap inside
    one copy of a repeated column, the same swap in every copy, an
    entry out of range either way, a short row, or a value repeated
    inside a column."""
    n = len(op)
    columns = list(zip(*op))
    copies = [b for b, column in enumerate(columns)
              if columns.index(column) != b]
    a, b = rng.randrange(n), rng.randrange(n)
    out = []
    for bad in (n, -1):
        out.append([list(row) for row in op])
        out[-1][a][b] = bad
    out.append([list(row) for row in op])
    del out[-1][a][-1]
    if n >= 2:
        out.append([list(row) for row in op])
        out[-1][a][b] = op[(a + 1) % n][b]
    if copies:
        b = rng.choice(copies)
        same = [c for c in range(n) if columns[c] == columns[b]]
        # rows off the diagonal of every copy, so that Q1 still holds
        rows = [r for r in range(n) if r not in same]
        x, y = rng.sample(rows, 2) if len(rows) >= 2 else rng.sample(same, 2)
        for targets in ([b], same):
            out.append([list(row) for row in op])
            for c in targets:
                out[-1][x][c], out[-1][y][c] = out[-1][y][c], out[-1][x][c]
    return out


def test_theorem_built_tables_search_no_generating_set(monkeypatch):
    # the universal cover, the census quotients and an extension total
    # are built with their gradings, so S is searched only when read
    bases = [transposition_quandle(4), qmod.conj_class(
        symmetric_group(5), (1, 2, 0, 3, 4))]
    for base in bases:
        base.generators  # the base's own, read by pi_1 and is_cocycle
    search, calls = qmod._generating_set, []
    monkeypatch.setattr(qmod, "_generating_set",
                        lambda rho: calls.append(rho) or search(rho))
    built = []
    for base in bases:
        pi1 = fund.fundamental_group(base, base.basepoints[0])
        built.append(fund.universal_cover(pi1).cover)
        built += [covering.cover
                  for covering in fund.enumerate_connected_coverings(pi1)]
        lam = coh.Coeff.from_invariants([3])
        g = tuple(a % 3 for a in range(base.n))
        built.append(coh.extension_from_cocycle(
            base, lam, coh.coboundary(base, lam, g)).total)
    assert len(built) >= 8 and calls == []
    found = [q.generators for q in built]
    assert len(calls) == len(built)
    for q, gens in zip(built, found):
        assert gens == qmod.validate(q.op, q.grading,
                                     q.basepoints).generators


def test_validate_keeps_the_generating_set_of_its_q3_check(monkeypatch):
    # validate searches S once for Q3 and hands it to the quandle, so
    # reading generators searches no second time
    table = transposition_quandle(5).op
    search, calls = qmod._generating_set, []
    monkeypatch.setattr(qmod, "_generating_set",
                        lambda rho: calls.append(rho) or search(rho))
    quandle = qmod.validate(table)
    assert quandle.generators == search(quandle.rho)
    assert len(calls) == 1


def test_from_columns_keeps_the_generating_set_it_searched(monkeypatch):
    # with no grading, from_columns searches S for the components and
    # hands it to the quandle, so reading generators searches no second
    # time
    base = transposition_quandle(4)
    pi1 = fund.fundamental_group(base, 0)
    coverings = [fund.universal_cover(pi1).projection,
                 qmod.identity_hom(base)]
    search, calls = qmod._generating_set, []
    monkeypatch.setattr(qmod, "_generating_set",
                        lambda rho: calls.append(rho) or search(rho))
    union = qmod.union_coverings(coverings)
    assert union.source.generators == search(union.source.rho)
    assert len(calls) == 1


def test_validate_finds_the_rowwise_witness_on_broken_coverings(
        covering_tables):
    # once a check fails, the witness is the one the row-by-row scan
    # finds first, as `quandelier validate` prints it
    rng = random.Random(11)
    axioms = Counter()
    for built, _, _ in covering_tables:
        for broken in broken_covering_tables(built.op, rng):
            got = _outcome(qmod.validate, broken)
            assert got == _outcome(oracles.validate_rowwise, broken)
            axioms[got[1] if isinstance(got, tuple) else "quandle"] += 1
    assert min(axioms[k] for k in ("Q1", "Q2", "Q3")) >= 30, axioms


def test_inv_op_inverts_columns():
    quandle = qmod.dihedral(6)
    for a in range(6):
        for b in range(6):
            assert quandle.op[quandle.inv_op[a][b]][b] == a
            assert quandle.inv_op[quandle.op[a][b]][b] == a


# ---------------------------------------------------------------------------
# constructors


def test_dihedral_small_tables():
    assert qmod.dihedral(3).op == ((0, 2, 1), (2, 1, 0), (1, 0, 2))
    assert qmod.trivial(3).op == ((0, 0, 0), (1, 1, 1), (2, 2, 2))


def test_dihedral_connectivity():
    # odd dihedral quandles are connected, even ones split in two
    for n in (3, 5, 7):
        assert qmod.dihedral(n).is_connected()
    for n in (2, 4, 6, 8):
        assert qmod.dihedral(n).component_count == 2


def test_trivial_components_are_singletons():
    quandle = qmod.trivial(4)
    assert quandle.component_count == 4
    assert quandle.basepoints == (0, 1, 2, 3)


def test_q_mn_block_structure():
    quandle = qmod.q_mn(2, 3)
    # same block acts trivially
    assert quandle.op[0][1] == 0
    assert quandle.op[2][3] == 2
    # cross block steps inside the element's own cycle
    assert quandle.op[0][2] == 1
    assert quandle.op[1][2] == 0
    assert quandle.op[2][0] == 3
    assert quandle.op[4][0] == 2
    assert quandle.component_count == 2


def test_conj_class_transpositions_count():
    assert transposition_quandle(3).n == 3
    assert transposition_quandle(4).n == 6
    assert transposition_quandle(5).n == 10


def test_conj_class_is_conjugation():
    group = symmetric_group(4)
    seed = (1, 0, 2, 3)
    quandle = qmod.conj_class(group, seed)
    # rebuild the element list the same way to check one product
    assert quandle.op[0][0] == 0
    assert quandle.is_connected()


def test_core_of_cyclic_group_is_dihedral():
    # core(Z_n) with a*b = b a^-1 b is the dihedral quandle on n points
    for n in (3, 4, 5):
        core = qmod.core(cyclic_group(n))
        dihedral = qmod.dihedral(n)
        # elements of the closure are rotations i -> i+k, in BFS order
        # 0, 1, ..., so the tables agree up to that labeling
        assert core.op == dihedral.op


def test_conj_class_and_core_match_the_tables_built_by_mul():
    # every class, from its first element in closure's order, and the
    # core; above order 720, where the core has over half a million
    # entries, the classes of the generators alone
    for name, group in small_permutation_groups():
        small = group.order <= 720
        covered = set()
        for seed in group.elements if small else group.generators:
            if seed not in covered:
                elements, table = oracles.conj_class_table(group, seed)
                assert qmod.conj_class(group, seed).op == table, (name, seed)
                covered.update(elements)
        if small:
            assert qmod.core(group).op == oracles.core_table(group), name
    s4 = symmetric_group(4)  # the corpus's S4 classes, from its seeds
    for seed in ((1, 0, 2, 3), (1, 2, 0, 3), (1, 2, 3, 0)):
        assert qmod.conj_class(s4, seed).op == oracles.conj_class_table(
            s4, seed)[1]


def test_conj_class_and_core_at_degrees_0_1_and_2():
    for group, seed in ((permgroup.closure([], degree=0), ()),
                        (permgroup.closure([(0,)]), (0,))):
        assert qmod.conj_class(group, seed).op == ((0,),)
        assert qmod.core(group).op == ((0,),)
    s2 = permgroup.closure([(1, 0)])
    for seed in s2.elements:
        assert qmod.conj_class(s2, seed).op == ((0,),)
    assert qmod.core(s2).op == ((0, 0), (1, 1))


def test_alexander_negative_one_is_dihedral():
    table = [[(a + b) % 5 for b in range(5)] for a in range(5)]
    neg = [(-a) % 5 for a in range(5)]
    assert qmod.alexander(table, neg).op == qmod.dihedral(5).op


def test_alexander_rejects_non_automorphism():
    table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    with pytest.raises(ValueError):
        qmod.alexander(table, [(2 * a) % 4 for a in range(4)])


# ---------------------------------------------------------------------------
# inner structure


def test_inn_conjugation_identity(corpus):
    # rho_{a*b} = rho_b^-1 rho_a rho_b for every a, b
    for _, quandle in corpus:
        rho = oracles.inn_generators(quandle)
        for a in range(quandle.n):
            for b in range(quandle.n):
                lhs = rho[quandle.op[a][b]]
                rhs = permgroup.mul(
                    permgroup.mul(permgroup.inverse(rho[b]), rho[a]), rho[b])
                assert lhs == rhs


def test_components_match_grading_default():
    quandle = qmod.q_mn(2, 2)
    parts, index = qmod.components(quandle)
    assert parts == [(0, 1), (2, 3)]
    assert index == quandle.grading


def test_components_match_union_find(corpus):
    for name, quandle in corpus:
        parts, index = qmod.components(quandle)
        assert parts == oracles.component_partition(quandle.op), name
        assert index == quandle.grading, name


def test_generators_generate_the_quandle(corpus):
    for name, quandle in corpus:
        gens = quandle.generators
        assert gens[0] == 0 and list(gens) == sorted(gens), name
        assert oracles.generated_subquandle(
            quandle.op, quandle.inv_op, gens) == set(range(quandle.n)), name
        # greedy: no generator lies in what the earlier ones generate
        for i, g in enumerate(gens[1:], 1):
            assert g not in oracles.generated_subquandle(
                quandle.op, quandle.inv_op, gens[:i]), name


def test_generating_set_sizes_of_benchmark_inputs():
    assert len(qmod.dihedral(31).generators) == 2
    s6 = transposition_quandle(6)
    assert len(s6.generators) == 5
    cover = fund.universal_cover(fund.fundamental_group(s6, 0)).cover
    assert cover.n == 360
    assert len(cover.generators) == 5


def test_grading_may_merge_components_but_not_split_them():
    d4 = qmod.dihedral(4)  # components {0, 2} and {1, 3}
    merged = qmod.validate(d4.op, grading=(0, 0, 0, 0))
    assert merged.basepoints == (0,)
    swapped = qmod.validate(d4.op, grading=(1, 0, 1, 0), basepoints=(1, 0))
    assert swapped.basepoints == (1, 0)
    with pytest.raises(ValueError, match="grading splits the component"):
        qmod.validate(d4.op, grading=(0, 0, 1, 1))


def test_basepoint_outside_the_table_is_rejected():
    # -1 would otherwise be read as the last element
    op = qmod.dihedral(3).op
    for q in (3, 7, -1):
        with pytest.raises(ValueError, match=f"basepoint {q} not in class"):
            qmod.validate(op, basepoints=(q,))


# ---------------------------------------------------------------------------
# homomorphisms and coverings


def test_hom_verdict_matches_the_full_check(corpus):
    # checking f(x * s) = f(x) * f(s) for s in the generating set accepts
    # exactly the maps the n^2 check accepts; witnesses are violations
    rng = random.Random(5)
    quandles = [quandle for _, quandle in corpus]
    dihedral = {q.n: q for name, q in corpus if name.startswith("dihedral")}
    verdicts = Counter()
    for _ in range(1500):
        source, target = rng.choice(quandles), rng.choice(quandles)
        kind = rng.randrange(5)
        if kind == 0:  # random map
            f = [rng.randrange(target.n) for _ in range(source.n)]
        elif kind == 1:  # constant map: a homomorphism
            f = [rng.randrange(target.n)] * source.n
        elif kind == 2:  # dihedral(k m) -> dihedral(m): a homomorphism
            m = rng.choice([m for m in dihedral if 12 // m >= 2])
            source, target = dihedral[m * rng.randint(2, 12 // m)], dihedral[m]
            f = [a % m for a in range(source.n)]
        else:  # an inner automorphism, then maybe one value changed
            target = source
            f = list(range(source.n))
            for _ in range(rng.randint(1, 3)):
                c = rng.randrange(source.n)
                f = [source.op[v][c] for v in f]
            if kind == 4:
                f[rng.randrange(source.n)] = rng.randrange(source.n)
        expected = oracles.hom_violation(f, source.op, target.op)
        try:
            qmod.QuandleHom(source, target, tuple(f))
        except NotAHomomorphism as exc:
            assert expected is not None
            a, b = exc.witness
            assert f[source.op[a][b]] != target.op[f[a]][f[b]]
            verdicts["broken"] += 1
        else:
            assert expected is None
            verdicts["hom"] += 1
    assert verdicts["broken"] >= 250 and verdicts["hom"] >= 250


def _random_homs(rng, corpus, count):
    """Seeded homomorphisms between corpus quandles: constant maps,
    affine maps dihedral(k m) -> dihedral(m), inner automorphisms, and
    component indices sent into a trivial quandle."""
    quandles = [quandle for _, quandle in corpus]
    dihedral = {q.n: q for name, q in corpus if name.startswith("dihedral")}
    out = []
    for _ in range(count):
        source, target = rng.choice(quandles), rng.choice(quandles)
        kind = rng.randrange(4)
        if kind == 0:
            f = [rng.randrange(target.n)] * source.n
        elif kind == 1:  # x -> u x + v is a homomorphism for any u
            m = rng.choice([m for m in dihedral if 12 // m >= 2])
            source, target = dihedral[m * rng.randint(2, 12 // m)], dihedral[m]
            u, v = rng.randrange(m), rng.randrange(m)
            f = [(u * a + v) % m for a in range(source.n)]
        elif kind == 2:
            target = source
            f = list(range(source.n))
            for _ in range(rng.randint(1, 3)):
                c = rng.randrange(source.n)
                f = [source.op[v][c] for v in f]
        else:  # a*b lies in a's component
            target = qmod.trivial(source.component_count + rng.randrange(3))
            slots = rng.sample(range(target.n), source.component_count)
            f = [slots[i] for i in source.grading]
        out.append(qmod.QuandleHom(source, target, tuple(f)))
    return out


def test_section_is_the_least_preimage(corpus, corpus_coverings):
    homs = [p for _, p in corpus_coverings]
    homs += _random_homs(random.Random(11), corpus, 400)
    surjective = Counter()
    for p in homs:
        assert p.section == oracles.least_preimages(p.map, p.target.n)
        onto = set(p.map) == set(range(p.target.n))
        assert p.is_surjective() == onto == (None not in p.section)
        surjective[onto] += 1
    assert surjective[True] >= 100 and surjective[False] >= 100


def _covering_verdict(p):
    """is_covering's verdict, checked against the check on all pairs;
    a witness it reports is a real violation."""
    ok, witness = qmod.is_covering(p)
    onto = set(p.map) == set(range(p.target.n))
    assert ok == (onto and oracles.covering_violation(p) is None)
    if witness is None:
        assert ok or not onto
    else:
        a, x, y = witness
        assert p.map[x] == p.map[y]
        assert p.source.op[a][x] != p.source.op[a][y]
    return ok


def test_covering_verdict_matches_the_full_check(corpus, corpus_coverings):
    # a covering compared on the generating set against all pairs of
    # fibre-mates and every a: corpus universal covers and census
    # coverings, each also followed by an inner automorphism (still a
    # covering) or by a homomorphism that merges base elements
    # (rarely one), the d8 -> d4 -> d2 composite and random maps
    rng = random.Random(13)
    d8, d4 = qmod.dihedral(8), qmod.dihedral(4)
    maps = [qmod.compose_homs(
        qmod.QuandleHom(d8, d4, tuple(a % 4 for a in range(8))),
        qmod.QuandleHom(d4, qmod.dihedral(2), tuple(a % 2 for a in range(4))))]
    maps += _random_homs(rng, corpus, 300)
    for _, p in corpus_coverings:
        base = p.target
        c = rng.randrange(base.n)
        inner = qmod.QuandleHom(base, base, tuple(row[c] for row in base.op))
        merge = qmod.QuandleHom(base, qmod.trivial(1), (0,) * base.n)
        maps += [p, qmod.compose_homs(p, inner), qmod.compose_homs(p, merge)]
    verdicts = Counter(_covering_verdict(p) for p in maps)
    assert verdicts[True] >= 2 * len(corpus_coverings)
    assert verdicts[False] >= 200


def test_hom_rejects_non_homomorphism():
    d3 = qmod.dihedral(3)
    with pytest.raises(NotAHomomorphism):
        qmod.QuandleHom(d3, d3, (0, 0, 1))


def test_identity_and_composition():
    d6 = qmod.dihedral(6)
    d3 = qmod.dihedral(3)
    p = qmod.QuandleHom(d6, d3, tuple(a % 3 for a in range(6)))
    ident = qmod.identity_hom(d3)
    assert qmod.compose_homs(p, ident).map == p.map


def test_fibres_are_trivial_subquandles():
    # inside one fibre of a covering, the operation restricts trivially
    d8 = qmod.dihedral(8)
    d4 = qmod.dihedral(4)
    p = qmod.QuandleHom(d8, d4, tuple(a % 4 for a in range(8)))
    assert qmod.is_covering(p)[0]
    for q in range(4):
        fibre = p.fibre(q)
        for x in fibre:
            for y in fibre:
                assert d8.op[x][y] == x


def test_covering_tower_of_dihedral_quandles():
    d8, d4, d2 = qmod.dihedral(8), qmod.dihedral(4), qmod.dihedral(2)
    p84 = qmod.QuandleHom(d8, d4, tuple(a % 4 for a in range(8)))
    p42 = qmod.QuandleHom(d4, d2, tuple(a % 2 for a in range(4)))
    assert qmod.is_covering(p84) == (True, None)
    assert qmod.is_covering(p42) == (True, None)
    composite = qmod.compose_homs(p84, p42)
    ok, witness = qmod.is_covering(composite)
    assert not ok
    a, x, y = witness
    assert composite.map[x] == composite.map[y]
    assert d8.op[a][x] != d8.op[a][y]


def test_non_surjective_is_not_covering():
    d3 = qmod.dihedral(3)
    t1 = qmod.trivial(1)
    inclusion = qmod.QuandleHom(t1, d3, (0,))
    assert not qmod.is_covering(inclusion)[0]


def test_pullback_of_coverings():
    d8, d4 = qmod.dihedral(8), qmod.dihedral(4)
    p = qmod.QuandleHom(d8, d4, tuple(a % 4 for a in range(8)))
    f = qmod.QuandleHom(d4, d4, tuple(qmod.dihedral(4).op[a][1]
                                      for a in range(4)))
    projection, leg = qmod.pullback(p, f)
    assert qmod.is_covering(projection)[0]
    # the square commutes: f after projection equals p after leg
    for x in range(projection.source.n):
        assert f.map[projection.map[x]] == p.map[leg.map[x]]


def test_union_of_coverings():
    d4, d2 = qmod.dihedral(4), qmod.dihedral(2)
    p = qmod.QuandleHom(d4, d2, tuple(a % 2 for a in range(4)))
    ident = qmod.identity_hom(d2)
    union = qmod.union_coverings([p, ident])
    assert union.source.n == 6
    assert qmod.is_covering(union)[0]


def test_union_of_nothing_is_an_error():
    with pytest.raises(EmptyUnion):
        qmod.union_coverings([])


def test_pullbacks_and_unions_match_the_cell_by_cell_builders(
        corpus_coverings):
    # each corpus covering pulled back along its base's universal cover,
    # and the union of all the coverings of each base
    by_base = {}
    for name, p in corpus_coverings:
        by_base.setdefault(name, []).append(p)
    for name, coverings in by_base.items():
        universal = coverings[0]
        for p in coverings:
            projection, leg = qmod.pullback(p, universal)
            assert (projection.source.op, projection.map, leg.map) == (
                oracles.pullback_cellwise(p, universal)), name
        union = qmod.union_coverings(coverings)
        assert (union.source.op, union.map) == (
            oracles.union_cellwise(coverings)), name
    assert len(by_base) >= 30


def test_random_tables_revalidate(corpus):
    # validate is stable: rebuilding from the op table is the identity
    for _, quandle in corpus:
        again = qmod.validate([list(row) for row in quandle.op])
        assert again.op == quandle.op
        assert again.inv_op == quandle.inv_op
