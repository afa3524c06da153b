"""Seeded inputs for the benchmark and the algebra its checks need.

The named quandles come from the package's constructors, so their cost
(table validation included) is part of set-up time, as it is for a
user who builds inputs with the library.  Everything else -- the random
corpus, cocycles, maps, invalid tables and extension bundles -- is built
here without the package, so the checks that rely on it stay
independent of the code under test.

Tables are 0-based lists of rows, op[a][b] = a * b.  Coefficient groups
are finite abelian groups given by invariant factors; their elements are
exponent tuples, enumerated in lexicographic order, which is the order
the extension-bundle file format uses for its action lines.
"""

import itertools
import random

from quandelier import permgroup, quandle as qmod

RANDOM_CORPUS_SEED = 20260824


# ---------------------------------------------------------------------------
# named quandles, through the package's constructors


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


def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def transposition_quandle(n):
    """Conjugation quandle on the transpositions of S_n."""
    return qmod.conj_class(symmetric_group(n),
                           tuple([1, 0] + list(range(2, n))))


def three_cycle_quandle_s5():
    """Conjugation quandle on the 20 three-cycles of S_5."""
    return qmod.conj_class(symmetric_group(5), (1, 2, 0, 3, 4))


def constructor_corpus():
    """The 35 named quandles of the test corpus, sizes <= 12."""
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
    for k, t in ((5, 2), (7, 3), (4, 3)):
        out.append((f"alexander(Z{k},x{t})",
                    qmod.alexander(cyclic_table(k),
                                   [(t * a) % k for a in range(k)])))
    return [(name, [list(row) for row in q.op]) for name, q in out]


# ---------------------------------------------------------------------------
# the random corpus, built without the package


def random_quandle(rng, sizes=(1, 2, 3, 4, 5, 6), attempts=5000):
    """One random quandle table by rejection.

    Q1 and Q2 hold by construction (each column is a random permutation
    fixing its own index); candidates are drawn until Q3 holds.  A size
    whose attempts run out is redrawn, so large sizes appear only as
    often as rejection lets them.  The sequence of draws matches the
    test suite's generator, so the same seed gives the same corpus.
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
            if first_q3_violation(op) is None:
                return op


def random_corpus(count=50, seed=RANDOM_CORPUS_SEED):
    rng = random.Random(seed)
    return [(f"random[{i}]", random_quandle(rng)) for i in range(count)]


# ---------------------------------------------------------------------------
# structure used by the checks


def components(op):
    """Orbits of the right translations, ordered by least element."""
    n = len(op)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(n):
        for b in range(n):
            ra, rb = find(a), find(op[a][b])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for a in range(n):
        groups.setdefault(find(a), []).append(a)
    return sorted(groups.values())


def q3_violation(op, a, b, c):
    return op[op[a][b]][c] != op[op[a][c]][op[b][c]]


def first_q3_violation(op):
    n = len(op)
    for a in range(n):
        for b in range(n):
            ab = op[a][b]
            for c in range(n):
                if op[ab][c] != op[op[a][c]][op[b][c]]:
                    return a, b, c
    return None


def hom_violation(src, tgt, f):
    """First (a, b) with f(a*b) != f(a)*f(b), or None."""
    n = len(src)
    for a in range(n):
        for b in range(n):
            if f[src[a][b]] != tgt[f[a]][f[b]]:
                return a, b
    return None


def covering_violation(src, f, x, y):
    """First a with a*x != a*y, for fibre-mates x and y, or None."""
    for a in range(len(src)):
        if src[a][x] != src[a][y]:
            return a
    return None


def is_covering(src, tgt, f):
    """Surjective homomorphism whose fibre-mates act alike."""
    if len(set(f)) != len(tgt) or hom_violation(src, tgt, f) is not None:
        return False
    first = {}
    for x, v in enumerate(f):
        y = first.setdefault(v, x)
        if y != x and covering_violation(src, f, y, x) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# coefficient groups and cocycles


class Abelian:
    """Z_{d1} x ... x Z_{dk}; elements are exponent tuples."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.elements = tuple(itertools.product(*(range(d)
                                                  for d in self.factors)))
        self.zero = self.elements[0]

    @property
    def spec(self):
        return "x".join(f"Z{d}" for d in self.factors)

    @property
    def order(self):
        return len(self.elements)

    def add(self, u, v):
        return tuple((x + y) % d for x, y, d in zip(u, v, self.factors))

    def sub(self, u, v):
        return tuple((x - y) % d for x, y, d in zip(u, v, self.factors))

    def random(self, rng):
        return tuple(rng.randrange(d) for d in self.factors)


def coboundary(op, lam, g):
    """f(a, b) = g(a*b) - g(a), the trivial class rescaled by g."""
    n = len(op)
    return [[lam.sub(g[op[a][b]], g[a]) for b in range(n)] for a in range(n)]


def add_cochains(lam, f, h):
    return [[lam.add(x, y) for x, y in zip(rf, rh)] for rf, rh in zip(f, h)]


def z2_cocycle_basis(op):
    """A basis of the Z2-valued 2-cocycles, as n x n 0/1 tables.

    Solves f(a,b) + f(a*b,c) = f(a,c) + f(a*c,b*c), f(a,a) = 0 over
    GF(2) by elimination on integer bitmasks, one bit per pair (a, b).
    """
    n = len(op)
    pivots = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                row = 0
                for x, y in ((a, b), (op[a][b], c), (a, c),
                             (op[a][c], op[b][c])):
                    if x != y:
                        row ^= 1 << (x * n + y)
                while row:
                    top = row.bit_length() - 1
                    if top not in pivots:
                        pivots[top] = row
                        break
                    row ^= pivots[top]
    free = [a * n + b for a in range(n) for b in range(n)
            if a != b and a * n + b not in pivots]
    basis = []
    for v in free:
        x = 1 << v
        for p in sorted(pivots):
            if bin(pivots[p] & x & ~(1 << p)).count("1") % 2:
                x |= 1 << p
        basis.append([[(x >> (a * n + b)) & 1 for b in range(n)]
                      for a in range(n)])
    return basis


def random_z2_cocycle(rng, basis, n):
    f = [[0] * n for _ in range(n)]
    for vec in basis:
        if rng.random() < 0.5:
            f = [[x ^ y for x, y in zip(rf, rv)] for rf, rv in zip(f, vec)]
    return [[(v,) for v in row] for row in f]


def cohomologous(op, lam, f1, f2):
    """Is f1 - f2 = g(a*b) - g(a) for some g?  Solved per component by
    propagating g along a -> a*b from the least element."""
    n = len(op)
    g = [None] * n
    for part in components(op):
        g[part[0]] = lam.zero
        stack = [part[0]]
        while stack:
            a = stack.pop()
            for b in range(n):
                c = op[a][b]
                if g[c] is None:
                    g[c] = lam.add(g[a], lam.sub(f1[a][b], f2[a][b]))
                    stack.append(c)
    return all(lam.sub(f1[a][b], f2[a][b]) == lam.sub(g[op[a][b]], g[a])
               for a in range(n) for b in range(n))


def extension(op, lam, f):
    """The extension Lambda x_f Q on pairs (u, a), a-major order.

    (u, a) * (v, b) = (u + f(a, b), a * b).  Returns the total table,
    the projection and, per component of Q, the Lambda action as one
    permutation per element of Lambda.
    """
    n, k = len(op), lam.order
    index = {(u, a): a * k + i
             for a in range(n) for i, u in enumerate(lam.elements)}
    pairs = sorted(index, key=index.get)
    total = [[index[(lam.add(u, f[a][b]), op[a][b])] for (_, b) in pairs]
             for (u, a) in pairs]
    projection = [a for (_, a) in pairs]
    action = []
    for part in components(op):
        members = set(part)
        action.append([[index[(lam.add(t, u), a)] if a in members
                        else index[(u, a)] for (u, a) in pairs]
                       for t in lam.elements])
    return total, projection, action


# ---------------------------------------------------------------------------
# seeded inputs for the jobs


def invalid_table(rng, op):
    """A table that breaks the axioms: two entries of one column swapped
    (Q3), a repeated column entry (Q2), or a moved diagonal (Q1)."""
    n = len(op)
    while True:
        bad = [list(row) for row in op]
        kind = rng.choice(("Q1", "Q2", "Q3", "Q3"))
        b = rng.randrange(n)
        others = [a for a in range(n) if a != b]
        if kind == "Q1":
            bad[b][b] = rng.choice(others)
        elif kind == "Q2":
            a1, a2 = rng.sample(others, 2)
            bad[a1][b] = bad[a2][b]
        else:
            a1, a2 = rng.sample(others, 2)
            bad[a1][b], bad[a2][b] = bad[a2][b], bad[a1][b]
        if kind != "Q3" or first_q3_violation(bad) is not None:
            return bad, kind


# ---------------------------------------------------------------------------
# the file formats the command line reads


def write(path, text):
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)
    return path


def quandle_text(op, basepoints=None):
    lines = [f"quandle {len(op)}"]
    lines += [" ".join(str(v + 1) for v in row) for row in op]
    if basepoints is not None:
        lines.append("basepoints " + " ".join(str(q + 1)
                                             for q in basepoints))
    return "\n".join(lines) + "\n"


def map_text(f):
    return f"map {len(f)}\n" + " ".join(str(v + 1) for v in f) + "\n"


def cocycle_text(lam, f):
    lines = [f"cocycle {len(f)} over {lam.spec}"]
    lines += [" ".join(",".join(str(e) for e in v) for v in row)
              for row in f]
    return "\n".join(lines) + "\n"


def bundle_text(op, lam, f):
    total, projection, action = extension(op, lam, f)
    base_points = [part[0] for part in components(op)]
    k = lam.order
    parts = ["extension\n", quandle_text(op, base_points),
             quandle_text(total, [q * k for q in base_points]),
             map_text(projection), f"coeff {lam.spec}\n"]
    for i, perms in enumerate(action):
        parts.append(f"action {i + 1}\n")
        parts += [" ".join(str(v + 1) for v in perm) + "\n"
                  for perm in perms]
    return "".join(parts)
