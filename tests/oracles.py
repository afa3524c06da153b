"""Brute-force versions of the checks the package makes on a generating
set.  They use no generating set and no part of the package, so the
tests can compare the package's answers against them."""

from quandelier import fpgroup


def q3_violation(op):
    """The first triple (a, b, c) with (a*b)*c != (a*c)*(b*c), or None:
    all n^3 triples."""
    n = len(op)
    for a in range(n):
        for b in range(n):
            ab = op[a][b]
            for c in range(n):
                if op[ab][c] != op[op[a][c]][op[b][c]]:
                    return a, b, c
    return None


def hom_violation(f, source_op, target_op):
    """The first pair (a, b) with f(a*b) != f(a)*f(b), or None: all n^2
    pairs."""
    n = len(source_op)
    for a in range(n):
        for b in range(n):
            if f[source_op[a][b]] != target_op[f[a]][f[b]]:
                return a, b
    return None


def component_partition(op):
    """Orbits of all n right translations, by union-find over every
    pair, ordered by least element."""
    n = len(op)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for b in range(n):
        for a in range(n):
            ra, rb = find(a), find(op[a][b])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    orbit = {}
    for a in range(n):
        orbit.setdefault(find(a), []).append(a)
    return [tuple(sorted(v)) for _, v in sorted(orbit.items())]


def generated_subquandle(op, inv_op, generators):
    """Closure of the generators under * and / in both arguments."""
    reached = set(generators)
    frontier = list(reached)
    while frontier:
        new = []
        for x in frontier:
            for y in list(reached):
                for z in (op[x][y], op[y][x], inv_op[x][y], inv_op[y][x]):
                    if z not in reached:
                        reached.add(z)
                        new.append(z)
        frontier = new
    return reached


def full_adjoint_presentation(quandle):
    """Adj(Q) with one relator b^-1 a b (a*b)^-1 for every ordered pair
    a != b, free-reduced and deduplicated."""
    n = quandle.n
    relators = []
    seen = set()
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            w = fpgroup.normalize((-(b + 1), a + 1, b + 1,
                                   -(quandle.op[a][b] + 1)))
            if w and w not in seen:
                seen.add(w)
                relators.append(w)
    return fpgroup.Presentation(generator_count=n, relators=tuple(relators))
