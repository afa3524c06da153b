"""Second, independent computations of what the package computes one
way: brute-force versions of the checks it makes on a generating set
(quandle axioms, homomorphisms, components and 2-cocycles), the
Todd-Coxeter kernel as first written, the Smith normal form with its
unimodular transforms, the full path 2-complex and H2 from it, the
brute-force route to |H^2|, the degree-adjusted deck permutations, the
least preimages of a map, the covering check on all pairs and the
search for an equivalence of extensions.  The tests compare the
package's answers against them."""

from itertools import product

from quandelier import cohomology as coh, fpgroup
from quandelier.errors import BudgetExceeded


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


def least_preimages(mapping, target_size):
    """The least preimage of each target element, or None off the
    image: one scan of the whole map per target element."""
    return tuple(min((a for a, v in enumerate(mapping) if v == y),
                     default=None)
                 for y in range(target_size))


def covering_violation(p):
    """The first triple (a, x, y) with p(x) = p(y) and a*x != a*y, or
    None: every pair of fibre-mates against every element a."""
    op, n = p.source.op, p.source.n
    for x in range(n):
        for y in range(x + 1, n):
            if p.map[x] == p.map[y]:
                for a in range(n):
                    if op[a][x] != op[a][y]:
                        return a, x, y
    return None


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


def todd_coxeter_reference(presentation, subgroup_generators=(),
                           budget=fpgroup.DEFAULT_COSET_BUDGET):
    """HLT coset enumeration with immediate coincidence processing, as
    the package ran it on row-major rows before its kernel was tightened.

    Enumerates the cosets of the subgroup generated by the given words.
    Cosets are numbered in definition order and relators scanned in a
    fixed order, so the result is deterministic.  Raises BudgetExceeded
    with the live-coset count if the table grows past the budget.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    ngens = presentation.generator_count
    ncols = 2 * ngens

    def col(letter):
        g = abs(letter) - 1
        return 2 * g if letter > 0 else 2 * g + 1

    def inv_col(c):
        return c ^ 1

    relator_cols = [tuple(col(letter) for letter in r)
                    for r in presentation.relators]
    subgroup_cols = [tuple(col(letter) for letter in w)
                     for w in subgroup_generators]

    table = [[None] * ncols]
    parent = [0]
    live = 1

    def rep(c):
        r = c
        while parent[r] != r:
            r = parent[r]
        while parent[c] != r:
            parent[c], c = r, parent[c]
        return r

    def define(alpha, x):
        nonlocal live
        if live >= budget:
            raise BudgetExceeded(live, "coset enumeration")
        beta = len(table)
        table.append([None] * ncols)
        parent.append(beta)
        live += 1
        table[alpha][x] = beta
        table[beta][inv_col(x)] = alpha
        return beta

    def merge(a, b, queue):
        nonlocal live
        a, b = rep(a), rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        live -= 1
        queue.append(b)

    def coincidence(a, b):
        queue = []
        merge(a, b, queue)
        while queue:
            gamma = queue.pop(0)
            for x in range(ncols):
                delta = table[gamma][x]
                if delta is None:
                    continue
                table[delta][inv_col(x)] = None
                mu, nu = rep(gamma), rep(delta)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x], queue)
                elif table[nu][inv_col(x)] is not None:
                    merge(mu, table[nu][inv_col(x)], queue)
                else:
                    table[mu][x] = nu
                    table[nu][inv_col(x)] = mu

    def scan_and_fill(alpha, cols):
        if not cols:
            return
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j and table[f][cols[i]] is not None:
                f = table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][inv_col(cols[j])] is not None:
                b = table[b][inv_col(cols[j])]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][cols[i]] = b
                table[b][inv_col(cols[i])] = f
                return
            define(f, cols[i])

    for w in subgroup_cols:
        scan_and_fill(0, w)
    alpha = 0
    while alpha < len(table):
        if rep(alpha) != alpha:
            alpha += 1
            continue
        for r in relator_cols:
            scan_and_fill(alpha, r)
            if rep(alpha) != alpha:
                break
        if rep(alpha) == alpha:
            for x in range(ncols):
                if table[alpha][x] is None:
                    define(alpha, x)
        alpha += 1

    # compact to live cosets, keeping definition order
    old_live = [c for c in range(len(table)) if rep(c) == c]
    renumber = {c: i for i, c in enumerate(old_live)}
    n = len(old_live)
    action = [[None] * n for _ in range(ngens)]
    action_inv = [[None] * n for _ in range(ngens)]
    for c in old_live:
        i = renumber[c]
        for g in range(ngens):
            action[g][i] = renumber[rep(table[c][2 * g])]
            action_inv[g][i] = renumber[rep(table[c][2 * g + 1])]

    # Schreier representative words by BFS over generators in order
    reps = [None] * n
    reps[0] = ()
    frontier = [0]
    while frontier:
        nxt = []
        for c in frontier:
            for g in range(ngens):
                for letter, d in ((g + 1, action[g][c]),
                                  (-(g + 1), action_inv[g][c])):
                    if reps[d] is None:
                        reps[d] = reps[c] + (letter,)
                        nxt.append(d)
        frontier = nxt
    if any(r is None for r in reps):
        raise AssertionError("coset table is not transitive")

    return fpgroup.CosetTable(
        generator_count=ngens, coset_count=n,
        action=tuple(tuple(row) for row in action),
        action_inv=tuple(tuple(row) for row in action_inv),
        representative_word=tuple(reps))


def smith_normal_form_with_transforms(matrix):
    """Smith normal form S = U*M*V with unimodular U, V, tracked
    through every row and column operation.

    S is diagonal with d1 | d2 | ..., all entries >= 0.  Exact big-int
    arithmetic; pivots are chosen by minimal absolute value.
    """
    s = [list(row) for row in matrix]
    rows = len(s)
    cols = len(s[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        s[i] = [a - q * b for a, b in zip(s[i], s[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in s:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def negate_row(i):
        s[i] = [-a for a in s[i]]
        u[i] = [-a for a in u[i]]

    t = 0
    while t < min(rows, cols):
        # pivot: nonzero entry of minimal absolute value in the block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                a = abs(s[i][j])
                if a and (best is None or a < best):
                    best, pivot = a, (i, j)
        if pivot is None:
            break
        while True:
            i, j = pivot
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            if s[t][t] < 0:
                negate_row(t)
            dirty = False
            for i in range(t + 1, rows):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    row_op(i, t, q)
                    if s[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    col_op(j, t, q)
                    if s[t][j]:
                        dirty = True
            if not dirty:
                # force divisibility of the remaining block
                bad = None
                for i in range(t + 1, rows):
                    for j in range(t + 1, cols):
                        if s[i][j] % s[t][t]:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                row_op(t, bad, -1)  # pivot row absorbs the offending row
            pivot = None
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    a = abs(s[i][j])
                    if a and (best is None or a < best):
                        best, pivot = a, (i, j)
        t += 1
    return s, u, v


def path_complex_cells(op):
    """The 2-cells of the full path complex as boundary words: the n
    loops (a, a), then all n^3 squares (a,b) (a*b,c) (a*c,b*c)^-1
    (a,c)^-1.  Edge (a, b) runs from a to a*b; a word holds signed
    1-based edge numbers a*n + b + 1."""
    n = len(op)

    def edge(a, b):
        return a * n + b + 1

    cells = [(edge(a, a),) for a in range(n)]
    cells += [(edge(a, b), edge(op[a][b], c), -edge(op[a][c], op[b][c]),
               -edge(a, c))
              for a in range(n) for b in range(n) for c in range(n)]
    return cells


def path_complex_h2(op, grading):
    """H2 per grading class, as H1 of the path 2-complex.

    Vertices are the elements of the class, edges the pairs starting
    there and 2-cells those of path_complex_cells.  The classes must be
    the connected components, so the rank of d1 is the class size minus
    one; d2 goes through Smith normal form.
    """
    n = len(op)
    cells = path_complex_cells(op)
    out = []
    for comp in range(max(grading) + 1):
        members = [a for a in range(n) if grading[a] == comp]
        row = {a * n + b: k
               for k, (a, b) in enumerate((a, b) for a in members
                                          for b in range(n))}
        d2 = {}
        for col, cell in enumerate(cells):
            if grading[(abs(cell[0]) - 1) // n] != comp:
                continue
            for signed in cell:
                key = (row[abs(signed) - 1], col)
                d2[key] = d2.get(key, 0) + (1 if signed > 0 else -1)
        factors = fpgroup._snf_invariants_sparse(d2)
        rank_d2 = len([d for d in factors if d])
        out.append(fpgroup.AbelianInvariants(
            free_rank=len(row) - (len(members) - 1) - rank_d2,
            torsion=tuple(d for d in factors if d >= 2)))
    return out


def cocycle_violation(values, quandle, coeffs):
    """The first witness against the 2-cocycle condition, or None: the
    diagonal as (a, a, a), then all n^3 triples (a, b, c) with
    f(a,b) f(a*b,c) != f(a,c) f(a*c,b*c)."""
    coeffs = coh.graded_coefficients(quandle, coeffs)
    n, op, gr = quandle.n, quandle.op, quandle.grading
    for a in range(n):
        if values[a][a] != coeffs[gr[a]].identity:
            return a, a, a
    for a in range(n):
        lam = coeffs[gr[a]]
        for b in range(n):
            for c in range(n):
                if (lam.mul(values[a][b], values[op[a][b]][c])
                        != lam.mul(values[a][c], values[op[a][c]][op[b][c]])):
                    return a, b, c
    return None


def enumerate_cocycles(quandle, coeffs, budget=1 << 20):
    """Every 2-cocycle, by trying all off-diagonal values.

    Only usable for tiny quandles; the independent route to |H^2|.
    """
    coeffs = coh.graded_coefficients(quandle, coeffs)
    n, gr = quandle.n, quandle.grading
    slots = [(a, b) for a in range(n) for b in range(n) if a != b]
    count = 1
    for (a, _) in slots:
        count *= coeffs[gr[a]].order
        if count > budget:
            raise BudgetExceeded(count, "cocycle enumeration")
    out = []
    for choice in product(*(range(coeffs[gr[a]].order) for (a, _) in slots)):
        values = [[coeffs[gr[a]].identity] * n for a in range(n)]
        for (a, b), v in zip(slots, choice):
            values[a][b] = v
        if cocycle_violation(values, quandle, coeffs) is None:
            out.append(coh.Cocycle2(tuple(tuple(r) for r in values)))
    return out


def cohomology_classes(quandle, coeffs, budget=1 << 20):
    """Representatives of the H^2 classes, and every cocycle."""
    cocycles = enumerate_cocycles(quandle, coeffs, budget=budget)
    reps = []
    for f in cocycles:
        if all(coh.are_cohomologous(f, r, quandle, coeffs) is None
               for r in reps):
            reps.append(f)
    return reps, cocycles


def adjusted_deck_perm(table, basepoint, stab_coset):
    """Left multiplication by a stabilizer coset's degree-zero element,
    traced on each coset's degree-zero word adj(q)^-deg(w) w."""
    q = basepoint + 1

    def degree_zero(w):
        deg = sum(1 if letter > 0 else -1 for letter in w)
        return (-q if deg > 0 else q,) * abs(deg) + w

    return tuple(table.trace(stab_coset, degree_zero(w))
                 for w in table.representative_word)


def equivalence_by_propagation(e1, e2, budget=1_000_000):
    """A projection-respecting equivariant isomorphism e1 -> e2, or None,
    by search: fixing the image of one lift of the least element of
    each orbit of the base's right translations determines the map on
    that orbit by equivariant propagation, so each of the |Lambda|
    images of the lift is tried.  The candidate is checked on
    every pair."""
    base = e1.projection.target
    phi = [None] * e1.total.n
    lift1, lift2 = {}, {}  # base element -> one chosen preimage
    for x in range(e1.total.n):
        lift1.setdefault(e1.projection.map[x], x)
    for x in range(e2.total.n):
        lift2.setdefault(e2.projection.map[x], x)
    steps = 0
    for members in component_partition(base.op):
        q = members[0]
        i = base.grading[q]
        lam = e1.coeffs[i]
        s1 = min(e1.projection.fibre(q))
        matched = False
        for mu in e2.projection.fibre(q):
            assign = {q: (s1, mu)}  # base element -> (anchor in e1, image)
            queue = [q]
            consistent = True
            while queue and consistent:
                a = queue.pop(0)
                x1, x2 = assign[a]
                for b in range(base.n):
                    steps += 1
                    if steps > budget:
                        raise BudgetExceeded(steps, "equivalence search")
                    c = base.op[a][b]
                    y1 = e1.total.op[x1][lift1[b]]
                    y2 = e2.total.op[x2][lift2[b]]
                    if c not in assign:
                        assign[c] = (y1, y2)
                        queue.append(c)
                        continue
                    # compare via the free Lambda shift from z1 to y1
                    z1, z2 = assign[c]
                    shift = next((k for k in range(lam.order)
                                  if e1.action[i][k][z1] == y1), None)
                    if shift is None or e2.action[i][shift][z2] != y2:
                        consistent = False
                        break
            if consistent and len(assign) == len(members):
                for x1, x2 in assign.values():
                    for k in range(lam.order):
                        phi[e1.action[i][k][x1]] = e2.action[i][k][x2]
                matched = True
                break
        if not matched:
            return None
    if None in phi:
        return None
    for x in range(e1.total.n):
        if e2.projection.map[phi[x]] != e1.projection.map[x]:
            return None
        for y in range(e1.total.n):
            if phi[e1.total.op[x][y]] != e2.total.op[phi[x]][phi[y]]:
                return None
    return tuple(phi)
