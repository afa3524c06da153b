"""Second, independent computations of what the package computes one
way: brute-force versions of the checks it makes on a generating set
(quandle axioms, homomorphisms, components and 2-cocycles), the
Todd-Coxeter kernel as first written with its table put in standard
form by sorting, the Smith normal form with its
unimodular transforms, the full path 2-complex and H2 from it, free
reduction letter by letter and the adjoint presentation built with it,
the cells of pi_1's complex lifted before any Tietze move, the
Reidemeister-Schreier rewrite of pi_1 before Tietze moves, the
Tietze simplification that also kept one relator per rotation class,
all the rotation classes of a presentation at once,
the brute-force route to |H^2|, the universal cover and the covering
census as the enumeration of Adj(Q) modulo <e_q> gives them, with the
deck group on its cosets, a Cayley table's left translations, and the
orbits and subgroups of a permutation group found by multiplying
permutations, the right cosets of a subgroup of a Cayley table and
the census quotient built from them, the right action of adjoint words on a
cover, a word traced through a coset table and the degree-adjusted
deck permutations, the least preimages
of a map, the covering check on all pairs, table
validation row by row, the search for an equivalence of extensions,
pullbacks and unions of coverings cell by cell, the right
translations as permutations, cocycles pulled back along a map and
homomorphisms into a finite group by brute force, their count into a
finite abelian group by the gcd formula on invariant factors, and the
command line's readers of table rows, action rows and cocycle entries,
one int() call per entry.  The tests compare the package's answers
against them."""

from itertools import product
from math import gcd
from operator import add, itemgetter

from quandelier import (cohomology as coh, fpgroup, fundamental, permgroup,
                        quandle as qmod)
from quandelier.errors import (BudgetExceeded, NotAQuandle,
                              NotRightInvertible, ParseError)


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


def validate_rowwise(op_table, grading=None, basepoints=None):
    """quandle.validate with every check made on all n rows and all n
    columns, repeated or not: range by row, each column inverted, and
    Q3 for each a and s in S as one comparison of a whole row of b."""
    op = tuple(tuple(row) for row in op_table)
    n = len(op)
    if n < 1:
        raise NotAQuandle("Q1", (), "empty quandle rejected")
    for a, row in enumerate(op):
        if len(row) != n:
            raise NotAQuandle("Q1", (a,), f"row {a} has wrong length")
        if min(row) < 0 or max(row) >= n:
            b = next(b for b, v in enumerate(row) if not 0 <= v < n)
            raise NotAQuandle("Q1", (a, b), f"entry {row[b]} out of range")
    elements = tuple(range(n))
    op = tuple(tuple(map(elements.__getitem__, row)) for row in op)
    for a in range(n):
        if op[a][a] != a:
            raise NotAQuandle("Q1", (a,))
    columns = tuple(zip(*op))
    inv = []
    for b, column in enumerate(columns):
        back = dict(zip(column, elements))
        if len(back) != n:
            raise NotRightInvertible(b)
        inv.append(tuple(map(back.__getitem__, elements)))
    inv_op = tuple(zip(*inv))
    gens = qmod._generating_set(columns)
    at_rho = [itemgetter(*columns[s]) for s in gens]
    for a in range(n):
        at_row_a = itemgetter(*op[a])
        for s, at_rho_s in zip(gens, at_rho):
            rho = columns[s]
            if at_row_a(rho) != at_rho_s(op[rho[a]]):
                b = next(b for b in range(n)
                         if rho[op[a][b]] != op[rho[a]][rho[b]])
                raise NotAQuandle("Q3", (a, b, s))
    parts, part_index = qmod._orbits(columns, gens)
    if grading is None:
        grading = part_index
    else:
        grading = tuple(grading)
        if len(grading) != n:
            raise ValueError("grading length mismatch")
        for part in parts:
            if len({grading[a] for a in part}) != 1:
                raise ValueError(f"grading splits the component {part}")
    classes = sorted(set(grading))
    if classes != list(range(len(classes))):
        raise ValueError("grading indices must be 0..k-1")
    if basepoints is None:
        basepoints = tuple(min(a for a in range(n) if grading[a] == i)
                           for i in classes)
    else:
        basepoints = tuple(basepoints)
        if len(basepoints) != len(classes):
            raise ValueError("need exactly one basepoint per grading class")
        for i, q in enumerate(basepoints):
            if not 0 <= q < n or grading[q] != i:
                raise ValueError(f"basepoint {q} not in class {i}")
    # the distinct columns, numbered by first occurrence
    number = {}
    column_id = tuple(number.setdefault(c, len(number)) for c in columns)
    quandle = qmod.FiniteQuandle(
        columns=tuple(number), column_id=column_id, grading=grading,
        basepoints=basepoints)
    assert (quandle.op, quandle.inv_op) == (op, inv_op)
    assert quandle.generators == gens
    return quandle


def normalize(word):
    """Freely reduce a word (cancel adjacent inverse pairs), letter by
    letter."""
    out = []
    for letter in word:
        if letter == 0:
            raise ValueError("0 is not a valid letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def adjoint_presentation_reference(quandle, gens):
    """fpgroup.adjoint_presentation as first written: each w_{x*s} and
    each relator s^-1 w_a s w_{a*s}^-1 freely reduced letter by letter
    by normalize."""
    rho, gens = quandle.rho, tuple(gens)
    words = [None] * quandle.n
    for k, s in enumerate(gens, 1):
        words[s] = (k,)
    tree = []
    queue = list(gens)
    for x in queue:  # grows while it is read
        for k, s in enumerate(gens, 1):
            y = rho[s][x]
            if words[y] is None:
                words[y] = normalize((-k,) + words[x] + (k,))
                tree.append((y, x, s))
                queue.append(y)
    relators = []
    seen = set()
    for a in range(quandle.n):
        for k, s in enumerate(gens, 1):
            w = normalize((-k,) + words[a] + (k,)
                          + fpgroup.inverse_word(words[rho[s][a]]))
            if w and w not in seen:
                seen.add(w)
                relators.append(w)
    return fpgroup.AdjointPresentation(
        generator_count=len(gens), relators=tuple(relators),
        generators=gens, words=tuple(words), tree=tuple(tree))


def lift_cells(step, cells):
    """Each pair (word, start) of cells lifted through the step table
    of fundamental.build_complex, letter by letter, to its closed edge
    path."""
    lifted = []
    for word, a in cells:
        path = []
        for letter in word:
            e, a = step[letter][a]
            path.append(e)
        lifted.append(tuple(path))
    return lifted


def lifted_cells(quandle, vertices):
    """The cells of fundamental.build_complex at the vertices, in its
    order, each lifted whole before any Tietze move: the reference for
    the lift fpgroup.simplify_cells makes while it reads them."""
    return lift_cells(*fundamental.build_complex(quandle, vertices))


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
            w = normalize((-(b + 1), a + 1, b + 1,
                           -(quandle.op[a][b] + 1)))
            if w and w not in seen:
                seen.add(w)
                relators.append(w)
    return fpgroup.Presentation(generator_count=n, relators=tuple(relators))


def complex_cells_in_adjoint_order(quandle, vertices, generators):
    """The cells of fundamental.build_complex in the adjoint
    presentation's order: the lift of w_a at each vertex a, then the
    lift of each relator at every vertex, each traced letter by letter
    through the quandle's table.  Adj(Q) is presented on the given
    generating set; build_complex reads quandle.adjoint.generators."""
    adjoint = fpgroup.adjoint_presentation(quandle, generators)
    gens = adjoint.generators
    m = len(gens)

    def lift(a, word):
        path = []
        for letter in word:
            k = abs(letter)
            if letter > 0:
                path.append(a * m + k)
                a = quandle.op[a][gens[k - 1]]
            else:
                a = quandle.inv_op[a][gens[k - 1]]
                path.append(-(a * m + k))
        return tuple(path)

    cells = [lift(a, adjoint.words[a]) for a in vertices]
    return cells + [lift(a, r) for r in adjoint.relators for a in vertices]


def reidemeister_schreier(quandle, basepoint, generators):
    """The Reidemeister-Schreier presentation of pi_1 at the basepoint
    before any Tietze move, with Adj(Q) presented on the given
    generating set S; on S = quandle.adjoint.generators
    fundamental.pi1_presentation must equal fpgroup.simplify of it.

    A BFS along the edges a -> a*s, s in S, crossed either way, builds
    a spanning tree of the basepoint's component.  The non-tree edges,
    |C||S| - (|C| - 1) of them, are numbered in edge order and are the
    generators; the cells of build_complex, in its order (shortest
    first, a stable sort of the adjoint order), with the tree letters
    dropped, free-reduced and deduplicated, are the relators.
    """
    if not 0 <= basepoint < quandle.n:
        raise ValueError("basepoint out of range")
    m = len(generators)
    op, inv_op = quandle.op, quandle.inv_op
    in_tree = set()
    visited = {basepoint}
    frontier = [basepoint]
    while frontier:
        nxt = []
        for v in frontier:
            for k, s in enumerate(generators):
                for e, w in ((v * m + k, op[v][s]),
                             (inv_op[v][s] * m + k, inv_op[v][s])):
                    if w not in visited:
                        visited.add(w)
                        in_tree.add(e)
                        nxt.append(w)
        frontier = nxt
    vertices = sorted(visited)
    # letter[e + 1] is the generator letter of edge e, 0 on the tree,
    # and letter[-(e + 1)] its inverse
    letter = [0] * (2 * quandle.n * m + 1)
    count = 0
    for e in (a * m + k for a in vertices for k in range(m)):
        if e not in in_tree:
            count += 1
            letter[e + 1], letter[-(e + 1)] = count, -count
    cells = sorted(complex_cells_in_adjoint_order(quandle, vertices,
                                                  generators), key=len)
    reduced = (normalize(filter(None, map(letter.__getitem__, w)))
               for w in cells)
    return fpgroup.Presentation(
        generator_count=count,
        relators=tuple(dict.fromkeys(r for r in reduced if r)))


def relator_classes(presentation):
    """The presentation, of its own class, with all its
    fpgroup.rotation_classes at once, as pi_1's enumeration read them
    before it read them lazily."""
    return fpgroup._unchecked(
        type(presentation), **{**vars(presentation), "relators": tuple(
            fpgroup.rotation_classes(presentation.relators))})


def _cyclically_reduce(word):
    """Free and cyclic reduction; a reduced word is returned as it is."""
    if (len(word) < 2 or word[0] + word[-1]) and 0 not in map(
            add, word, word[1:]):
        return word
    word = normalize(word)
    i, j = 0, len(word)
    while j - i > 1 and word[i] == -word[j - 1]:
        i, j = i + 1, j - 1
    return word[i:j]


def simplify_reference(generator_count, relators, killed=frozenset()):
    """fpgroup.simplify as it was written before its rotation classes
    moved to fpgroup.rotation_classes: the same Tietze moves, reading
    unsigned letters and reducing cyclically in a second step, and at
    the end each survivor kept as the least rotation of it or of its
    inverse, deduplicated, shorter relators first.  Returns
    (Presentation, images)."""
    count = generator_count
    sub = list(range(count + 1)) + list(range(-count, 0))
    for g in killed:
        sub[g] = sub[-g] = 0
    alive = count - len(killed)
    readers = {}
    recent = set(range(1, count + 1))
    while recent:
        eliminated = set()
        kept = []
        for w in relators:
            if not recent.isdisjoint(map(abs, w)):
                w = _cyclically_reduce(
                    tuple(filter(None, map(sub.__getitem__, w))))
            if len(w) == 1 or len(w) == 2 and abs(w[0]) != abs(w[1]):
                a, b = sorted(w, key=abs) if len(w) == 2 else (0, w[0])
                into, b = (-a if b > 0 else a), abs(b)
                group = readers.pop(b, [b])
                for g in group:
                    sub[g] = into if sub[g] > 0 else -into
                    sub[-g] = -sub[g]
                readers.setdefault(abs(into), [abs(into)]).extend(group)
                recent.add(b)
                eliminated.add(b)
                alive -= 1
                if not alive:
                    break
            elif w:
                kept.append(w)
        relators = tuple(dict.fromkeys(kept)) if alive else ()
        recent = eliminated
    survivors = [g for g in range(1, count + 1) if sub[g] == g]
    number = [0] * (count + 1)
    for k, g in enumerate(survivors, 1):
        number[g] = k
    final = [0] + [number[v] if v > 0 else -number[-v]
                   for v in sub[1:count + 1]]
    final += [-v for v in reversed(final[1:])]

    def canonical(w):
        w = tuple(map(final.__getitem__, w))
        return min(v[i:] + v[:i] for v in (w, fpgroup.inverse_word(w))
                   for low in (min(v),) for i in range(len(v)) if v[i] == low)

    return (fpgroup.Presentation(generator_count=len(survivors),
                                 relators=tuple(sorted(dict.fromkeys(
                                     map(canonical, relators)), key=len))),
            tuple(final[1:count + 1]))


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


def shortlex_key(word):
    """A word's place in the order of length, then letter by letter in
    the order 1, -1, 2, -2, ..."""
    return len(word), tuple(2 * abs(x) - (x > 0) for x in word)


def standard_form(table):
    """The same table, cosets renumbered by the shortlex order of their
    representative words (the BFS words over 1, -1, 2, -2, ..., each
    the shortlex-least word reaching its coset)."""
    words = table.representative_word
    order = sorted(range(table.coset_count),
                   key=lambda c: shortlex_key(words[c]))
    number = [None] * table.coset_count
    for i, c in enumerate(order):
        number[c] = i

    def renumbered(columns):
        return tuple(tuple(number[column[c]] for c in order)
                     for column in columns)

    return fpgroup.CosetTable(
        generator_count=table.generator_count,
        coset_count=table.coset_count,
        action=renumbered(table.action),
        action_inv=renumbered(table.action_inv),
        representative_word=tuple(words[c] for c in order))


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
            out.append(tuple(tuple(r) for r in values))
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


def deck_group(table, endpoints, basepoint):
    """pi_1 as a permutation group acting on the cosets of
    fundamental.adj0_enumeration from the left.

    Elements correspond to cosets whose endpoint is the basepoint,
    listed in coset order; the action is free, so it is faithful.
    Stabilizer coset g acts as <adj(q)> w -> <adj(q)> g w: g ends at q,
    so it commutes with adj(q) and no degree adjustment is needed.  The
    cosets are visited along the Schreier tree of the representative
    words, parents first: if coset d is c.x, g sends d to (g c).x, with
    one table lookup per coset.
    """
    words = table.representative_word
    tree = []
    for d in sorted(range(1, table.coset_count), key=lambda d: len(words[d])):
        g = abs(words[d][-1]) - 1
        step, back = table.action[g], table.action_inv[g]
        if words[d][-1] < 0:
            step, back = back, step
        tree.append((d, back[d], step))
    stabilizer = [c for c in range(table.coset_count)
                  if endpoints[c] == basepoint]
    perms = []
    for s in stabilizer:
        perm = [s] * table.coset_count
        for d, c, step in tree:
            perm[d] = step[perm[c]]
        perms.append(tuple(perm))
    perms = tuple(perms)
    return permgroup.FiniteGroup(degree=table.coset_count, elements=perms,
                                 generators=perms,
                                 identity_index=stabilizer.index(0))


def right_action_on_cover(p, element, word):
    """Apply an adjoint word (letters name base elements) to a cover
    element, lifting each letter to its section element; well defined
    because p is a covering."""
    x = element
    for letter in word:
        b = p.section[abs(letter) - 1]
        x = p.source.op[x][b] if letter > 0 else p.source.inv_op[x][b]
    return x


def universal_cover_by_columns(quandle):
    """The universal covering on the cosets of Adj(Q) modulo <e_q>, q
    the first basepoint: cell (c, d) is coset c times e_{end(d)}, so the
    table is the zip of the action columns of the endpoints.  Returns
    (projection, coset table, endpoints)."""
    table, ends = fundamental.adj0_enumeration(quandle, quandle.basepoints[0])
    cover = qmod.validate(tuple(zip(*map(table.action.__getitem__, ends))))
    return qmod.QuandleHom(cover, quandle, ends), table, ends


def left_translations(cayley, copies=1):
    """A group given by its Cayley table, identity 0, acting from the
    left on copies of itself: g sends element h copies + c to
    (gh) copies + c.  The action is free, so faithful; with one copy,
    element g is row g.  With base.n copies it is the deck group of
    the universal cover, whose element g n + a is (a, g)."""
    perms = tuple(tuple(x * copies + c for x in row for c in range(copies))
                  for row in cayley)
    return permgroup.FiniteGroup(degree=copies * len(cayley),
                                 elements=perms, generators=perms,
                                 identity_index=0)


def right_cosets(mul, sub):
    """The right cosets K h = {k h} of a subgroup of the group with
    Cayley table mul, each sorted, least element first, and whether K
    is normal: K h = h K at one h per coset suffices, as
    k h K = k K h = K h."""
    cosets, normal, seen = [], True, set()
    for h in range(len(mul)):
        if h not in seen:
            coset = sorted(mul[k][h] for k in sub)
            seen.update(coset)
            cosets.append(coset)
            normal = normal and set(coset) == {mul[h][k] for k in sub}
    return cosets, normal


def quotient_by_right_cosets(pi1, sub):
    """Q x pi_1 modulo the subgroup K acting from the left, from the
    list of K's right cosets: element i n + a is (a, K g) for the i-th
    coset, over a, and every element over b acts by column b,
    (a, K g) -> (a*b, K g f(a,b))."""
    mul, quandle, n = pi1.cayley, pi1.quandle, pi1.quandle.n
    cosets, _ = right_cosets(mul, sub)
    offset = {g: i * n for i, coset in enumerate(cosets) for g in coset}
    columns = [tuple(offset[mul[coset[0]][pi1.cocycle[a][b]]] + rho_b[a]
                     for coset in cosets for a in range(n))
               for b, rho_b in enumerate(quandle.rho)]
    over = tuple(range(n)) * len(cosets)
    return qmod.from_columns(columns, quandle, over, (0,) * len(over), (0,))


def orbits(group, points=None):
    """Partition of the given points into group orbits.

    Each orbit is sorted ascending; orbits are ordered by their minimum
    element.  Only the generators are needed to trace orbits.
    """
    if points is None:
        points = range(group.degree)
    points = sorted(set(points))
    if any(p < 0 or p >= group.degree for p in points):
        raise ValueError("point outside the permutation domain")
    remaining = set(points)
    result = []
    for p in points:
        if p not in remaining:
            continue
        orbit = {p}
        stack = [p]
        while stack:
            x = stack.pop()
            for g in group.generators:
                y = g[x]
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        result.append(tuple(sorted(orbit)))
        remaining -= orbit
    return result


def _close_set(seed, group, index):
    """Subgroup (as an index set) generated by the seed indices, closed
    under inverses and products of permutations."""
    elements = group.elements
    members = set(seed)
    members.add(group.identity_index)
    stack = list(members)
    while stack:
        i = stack.pop()
        j = index[permgroup.inverse(elements[i])]
        if j not in members:
            members.add(j)
            stack.append(j)
        for k in list(members):
            for a, b in ((i, k), (k, i)):
                m = index[permgroup.mul(elements[a], elements[b])]
                if m not in members:
                    members.add(m)
                    stack.append(m)
    return frozenset(members)


def subgroups(group, budget=permgroup.DEFAULT_SUBGROUP_BUDGET):
    """All subgroups of a permutation group, each a FiniteGroup: the
    cyclic subgroups joined pairwise, round after round, until a round
    finds nothing new.  Ordered by (order, sorted element indices)."""
    if group.order > budget:
        raise BudgetExceeded(group.order, "subgroup search")
    index = {p: i for i, p in enumerate(group.elements)}
    found = {frozenset({group.identity_index})}
    for i in range(group.order):
        found.add(_close_set({i}, group, index))
    while True:
        fresh = set()
        current = sorted(found, key=lambda s: (len(s), sorted(s)))
        for ia in range(len(current)):
            for ib in range(ia + 1, len(current)):
                a, b = current[ia], current[ib]
                if a <= b or b <= a:
                    continue
                j = _close_set(a | b, group, index)
                if j not in found:
                    fresh.add(j)
        if not fresh:
            break
        found |= fresh
    out = []
    for s in sorted(found, key=lambda s: (len(s), sorted(s))):
        members = sorted(s)
        elements = tuple(group.elements[i] for i in members)
        out.append(permgroup.FiniteGroup(
            degree=group.degree, elements=elements, generators=elements,
            identity_index=members.index(group.identity_index)))
    return out


def is_normal(sub, group):
    """Whether every conjugate g^-1 k g of the subgroup stays in it."""
    members = set(sub.elements)
    return all(permgroup.mul(permgroup.mul(permgroup.inverse(g), k), g)
               in members for g in group.elements for k in sub.elements)


def census_by_orbits(quandle, basepoint):
    """(fibre, normal) for each connected covering, one per subgroup K
    of the deck group on the cosets of Adj(Q) modulo <e_q>: the
    quotient's elements are K's orbits on the cosets, and its fibre
    over the basepoint has |pi_1 : K| of them."""
    table, ends = fundamental.adj0_enumeration(quandle, basepoint)
    deck = deck_group(table, ends, basepoint)
    out = []
    for sub in subgroups(deck):
        parts = orbits(sub)
        orbit_of = [None] * table.coset_count
        for i, orbit in enumerate(parts):
            for c in orbit:
                orbit_of[c] = i
        reps = [orbit[0] for orbit in parts]
        total = qmod.validate(tuple(
            tuple(orbit_of[table.action[ends[d]][c]] for d in reps)
            for c in reps))
        projection = qmod.QuandleHom(total, quandle,
                                     tuple(ends[c] for c in reps))
        assert qmod.is_covering(projection)[0] and total.is_connected()
        out.append((len(projection.fibre(basepoint)), is_normal(sub, deck)))
    return out


def trace(table, coset, word):
    """The coset a word reaches from the given coset, letter by
    letter through the coset table."""
    for letter in word:
        coset = table.apply_letter(coset, letter)
    return coset


def adjusted_deck_perm(table, basepoint, stab_coset):
    """Left multiplication by a stabilizer coset's degree-zero element,
    traced on each coset's degree-zero word adj(q)^-deg(w) w."""
    q = basepoint + 1

    def degree_zero(w):
        deg = sum(1 if letter > 0 else -1 for letter in w)
        return (-q if deg > 0 else q,) * abs(deg) + w

    return tuple(trace(table, stab_coset, degree_zero(w))
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


def pullback_cellwise(p, f):
    """The pullback of the covering p along f, one cell at a time:
    (table, projection map, leg map) on the fibred product
    {(x, a) | f(x) = p(a)}, ordered lexicographically."""
    x_side, cover = f.source, p.source
    elements = [(x, a) for x in range(x_side.n) for a in range(cover.n)
                if f.map[x] == p.map[a]]
    index = {e: i for i, e in enumerate(elements)}
    table = tuple(tuple(index[(x_side.op[x][y], cover.op[a][b])]
                        for (y, b) in elements)
                  for (x, a) in elements)
    return (table, tuple(x for x, _ in elements),
            tuple(a for _, a in elements))


def union_cellwise(coverings):
    """The disjoint union of coverings of one base, one cell at a time:
    (table, projection map); (a, i) times (b, j) acts by the section
    element of p_j(b) in summand i."""
    elements = [(i, a) for i, p in enumerate(coverings)
                for a in range(p.source.n)]
    index = {e: k for k, e in enumerate(elements)}
    table = tuple(
        tuple(index[(i, coverings[i].source.op[a][
            coverings[i].section[coverings[j].map[b]]])]
              for (j, b) in elements)
        for (i, a) in elements)
    return table, tuple(coverings[i].map[a] for (i, a) in elements)


def inn_generators(quandle):
    """The right translations rho_a as permutations, one per element."""
    return tuple(tuple(quandle.op[x][a] for x in range(quandle.n))
                 for a in range(quandle.n))


def pullback_cocycle(f_hom, f, coeffs):
    """Pull a cocycle on the target back along a homomorphism.

    Returns (values, coefficient groups) regraded over the source's
    components via the induced map on components.
    """
    target, source = f_hom.target, f_hom.source
    coeffs = coh.graded_coefficients(target, coeffs)
    rows = tuple(tuple(f[f_hom.map[x]][f_hom.map[y]]
                       for y in range(source.n))
                 for x in range(source.n))
    comp_map = [None] * source.component_count
    for x in range(source.n):
        comp_map[source.grading[x]] = target.grading[f_hom.map[x]]
    return rows, tuple(coeffs[comp_map[i]]
                       for i in range(source.component_count))


def enumerate_homs(presentation, cayley, budget=1 << 20):
    """All homomorphisms into the finite group with the given Cayley
    table, identity 0, as element-index tuples: brute force over the
    generator images in lexicographic order, filtered by every
    relator."""
    ngens, order = presentation.generator_count, len(cayley)
    if order ** ngens > budget:
        raise BudgetExceeded(order ** ngens, "homomorphism search")
    inv = [row.index(0) for row in cayley]
    out = []
    for images in product(range(order), repeat=ngens):
        ok = True
        for r in presentation.relators:
            acc = 0
            for letter in r:
                g = images[abs(letter) - 1]
                acc = cayley[acc][g if letter > 0 else inv[g]]
            if acc != 0:
                ok = False
                break
        if ok:
            out.append(images)
    return out


def count_homs_to_abelian(src, target):
    """|Hom(src, target)| for AbelianInvariants src and a finite
    target: |target|^rank times, for each source torsion factor d, the
    product of gcd(d, e) over target factors e."""
    if target.free_rank:
        raise ValueError("target must be finite")
    total = target.order ** src.free_rank
    for d in src.torsion:
        for e in target.torsion:
            total *= gcd(d, e)
    return total


def _file_integer(token, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected {what}, got {token!r}")


def table_row_entrywise(row, n):
    """A row of a quandle file's table as 0-based entries: each token
    read by int() and checked to lie in 1..n."""
    entries = []
    for tok in row:
        v = _file_integer(tok, "table entry")
        if not 1 <= v <= n:
            raise ParseError(f"table entry {v} outside 1..{n}")
        entries.append(v - 1)
    return entries


def action_row_entrywise(row):
    """A line of an extension bundle's action as 0-based entries, each
    token read by int(); the caller checks that it is a permutation."""
    return tuple(_file_integer(t, "action entry") - 1 for t in row)


def cocycle_entry_entrywise(token, coeff):
    """Exponent tuple 'e1,...,ek' -> element index of an abelian Coeff,
    each exponent read by int() modulo its factor."""
    if not coeff.invariants:
        raise ParseError("cocycle entries need an abelian group spec")
    parts = token.split(",")
    if len(parts) != len(coeff.invariants):
        raise ParseError(
            f"entry {token!r} has {len(parts)} exponents, "
            f"want {len(coeff.invariants)}")
    label = tuple(_file_integer(p, "exponent") % d
                  for p, d in zip(parts, coeff.invariants))
    return coeff.labels.index(label)
