"""Shared corpus of quandles used by the property and acceptance suites."""

import random

import pytest

from quandelier import cohomology as coh, permgroup, quandle as qmod
from oracles import q3_violation


def symmetric_group(n):
    gens = []
    for i in range(n - 1):
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    return permgroup.closure(gens)


def cyclic_group(n):
    return permgroup.closure([tuple((i + 1) % n for i in range(n))],
                             degree=n)


def cayley_table(group):
    """The multiplication table of a permutation group in its element
    order: entry [i][j] indexes elements[i] followed by elements[j]."""
    index = {p: i for i, p in enumerate(group.elements)}
    return [[index[permgroup.mul(p, q)] for q in group.elements]
            for p in group.elements]


def right_translations(group):
    """The right translations of a permutation group in its element
    order: entry [j][i] indexes elements[i] followed by elements[j]."""
    return tuple(zip(*cayley_table(group)))


def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def relabelled_coeff(coeff, rng):
    """coeff's table under a random relabelling that moves the identity
    to another label (the trivial group has none), as a table group."""
    k = coeff.order
    perm = list(range(k))
    while k > 1 and perm[coeff.identity] == coeff.identity:
        rng.shuffle(perm)
    table = [[None] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            table[perm[a]][perm[b]] = perm[coeff.mul(a, b)]
    return coh.Coeff.from_table(table, perm[coeff.identity])


def transposition_quandle(n):
    """Conjugation quandle on the transpositions of S_n."""
    seed = tuple([1, 0] + list(range(2, n)))
    return qmod.conj_class(symmetric_group(n), seed)


def transpositions_on_pairs(m):
    """The transposition quandle of S_m on the pairs i < j: (i j)
    conjugated by (k l) swaps k and l among its points."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    index = {p: k for k, p in enumerate(pairs)}

    def conj(a, b):
        swap = {b[0]: b[1], b[1]: b[0]}
        return index[tuple(sorted(swap.get(x, x) for x in a))]

    return qmod.validate([[conj(a, b) for b in pairs] for a in pairs])


def disjoint_union(first, second):
    """The two quandles side by side, each acting trivially on the
    other."""
    n, m = first.n, second.n
    op = [list(first.op[x]) + [x] * m for x in range(n)]
    op += [[n + x] * n + [n + y for y in second.op[x]] for x in range(m)]
    return qmod.validate(op)


def constructor_corpus():
    """Named quandles from every constructor, sizes <= 12, and disjoint
    unions of some of them."""
    out = []
    for n in range(1, 13):
        out.append((f"dihedral({n})", qmod.dihedral(n)))
    for n in (1, 2, 3, 6):
        out.append((f"trivial({n})", qmod.trivial(n)))
    for m, n in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 4)):
        out.append((f"q_mn({m},{n})", qmod.q_mn(m, n)))
    out.append(("conj(S3,transposition)", transposition_quandle(3)))
    out.append(("conj(S4,transposition)", transposition_quandle(4)))
    out.append(("conj(S5,transposition)", transposition_quandle(5)))
    s4 = symmetric_group(4)
    out.append(("conj(S4,3-cycle)", qmod.conj_class(s4, (1, 2, 0, 3))))
    out.append(("conj(S4,4-cycle)", qmod.conj_class(s4, (1, 2, 3, 0))))
    for n in (3, 4, 5, 6):
        out.append((f"core(Z{n})", qmod.core(cyclic_group(n))))
    out.append(("core(S3)", qmod.core(symmetric_group(3))))
    out.append(("alexander(Z5,x2)",
                qmod.alexander(cyclic_table(5),
                               [(2 * a) % 5 for a in range(5)])))
    out.append(("alexander(Z7,x3)",
                qmod.alexander(cyclic_table(7),
                               [(3 * a) % 7 for a in range(7)])))
    out.append(("alexander(Z4,x3)",
                qmod.alexander(cyclic_table(4),
                               [(3 * a) % 4 for a in range(4)])))
    # unions whose components differ in H2: each component is read at
    # its own basepoint, and a generating set must reach both
    for (first, a), (second, b) in (
            (("conj(S4,transposition)", transposition_quandle(4)),
             ("dihedral(3)", qmod.dihedral(3))),
            (("conj(S4,transposition)", transposition_quandle(4)),
             ("dihedral(5)", qmod.dihedral(5))),
            (("q_mn(2,2)", qmod.q_mn(2, 2)),
             ("dihedral(5)", qmod.dihedral(5)))):
        out.append((f"{first}+{second}", disjoint_union(a, b)))
    return out


def random_quandle(rng, sizes=(1, 2, 3, 4, 5, 6), attempts=5000):
    """One random valid table by rejection.

    Q1/Q2 are enforced structurally (each column is a random
    permutation fixing its own index); candidates are rejected until Q3
    holds.  Sizes whose attempt budget runs out are redrawn, so large
    sizes appear only as often as rejection allows.
    """
    while True:
        n = rng.choice(sizes)
        for _ in range(attempts):
            cols = []
            for b in range(n):
                rest = [a for a in range(n) if a != b]
                images = rest[:]
                rng.shuffle(images)
                col = [0] * n
                col[b] = b
                for a, v in zip(rest, images):
                    col[a] = v
                cols.append(col)
            op = [[cols[b][a] for b in range(n)] for a in range(n)]
            if q3_violation(op) is None:
                return qmod.validate(op)


def random_corpus(count=50, seed=20260824):
    rng = random.Random(seed)
    return [(f"random[{i}]", random_quandle(rng)) for i in range(count)]


@pytest.fixture(scope="session")
def corpus():
    return constructor_corpus() + random_corpus()


@pytest.fixture(scope="session")
def corpus_coverings(corpus):
    """(name, projection) for the universal cover and every census
    covering of each connected corpus quandle."""
    from quandelier import fundamental as fund
    out = []
    for name, quandle in corpus:
        if quandle.is_connected():
            pi1 = fund.fundamental_group(quandle, quandle.basepoints[0])
            out.append((name, fund.universal_cover(pi1).projection))
            out += [(name, covering.projection) for covering
                    in fund.enumerate_connected_coverings(pi1)]
    return out
