"""Finite quandles: validation, standard constructors, homomorphisms,
components and gradings, and the covering predicate.

Elements are always 0-based indices; 1-based indexing exists only at
the CLI boundary.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import itemgetter

from . import fpgroup, permgroup
from .errors import (EmptyUnion, NotAHomomorphism, NotAQuandle,
                     NotRightInvertible)
from .permgroup import FiniteGroup, Perm


@dataclass(frozen=True)
class FiniteQuandle:
    """An n-element quandle held by its distinct right translations
    C: a -> a*b, built by validate or from_columns.

    columns holds them numbered by first occurrence in b, and
    column_id[b] is the number of b's: a*b = rho[b][a] and
    a/b = rho_inv[b][a], each distinct column inverted once, when first
    read.  A covering of an n-element quandle has at most n distinct
    columns, so it costs O(n N); the N x N tables op[a][b] = a*b and
    inv_op[a][b] = a/b are built only when read, and so is generators,
    the greedy generating set S, unless validate found it for Q3: the
    rho_s with s in S generate Inn(Q), so Q3, homomorphisms, coverings,
    lifting and cocycles are checked on S.  grading maps each element
    to a component index (default: its connected component); basepoints
    picks one element per grading class (default: the minimum of each
    class).  adjoint is Adj(Q) with its words w_x, built on first use
    and presented on its own generating set, adjoint.generators, which
    a closure search makes no larger than S: pi_1's presentation, its
    cocycle and monodromy read that set, as pi_1's complex has about
    n^2 (|S| - 1) cells.
    """

    columns: tuple
    column_id: tuple
    grading: tuple
    basepoints: tuple

    @property
    def n(self) -> int:
        return len(self.column_id)

    @property
    def component_count(self) -> int:
        return len(self.basepoints)

    def is_connected(self) -> bool:
        return self.component_count == 1

    def same_table(self, other) -> bool:
        """Equal operations: both number their columns canonically."""
        return self is other or (self.column_id == other.column_id
                                 and self.columns == other.columns)

    @cached_property
    def rho(self) -> tuple:
        return tuple(map(self.columns.__getitem__, self.column_id))

    @cached_property
    def generators(self) -> tuple:
        return _generating_set(self.rho)

    @cached_property
    def rho_inv(self) -> tuple:
        elements = tuple(range(self.n))
        inverses = [tuple(map(dict(zip(column, elements)).__getitem__,
                              elements)) for column in self.columns]
        return tuple(map(inverses.__getitem__, self.column_id))

    @cached_property
    def op(self) -> tuple:
        return tuple(zip(*self.rho))

    @cached_property
    def inv_op(self) -> tuple:
        return tuple(zip(*self.rho_inv))

    @cached_property
    def adjoint(self) -> fpgroup.AdjointPresentation:
        return fpgroup.adjoint_presentation(
            self, _closure_search(self.rho, self.generators))


def _close(columns, members, reached, gens):
    """Grow members, a list marked in reached and closed under
    x -> x * s = columns[s][x] for s in gens[:-1], by gens[-1], which is
    not in it, to its closure under all of gens: the subquandle they
    generate, as / is a power of *.  The old members need only
    s = gens[-1], so each (x, s) is visited once."""
    g = gens[-1]
    old = len(members)
    reached[g] = True
    members.append(g)
    for i, x in enumerate(members):  # grows while it is read
        for s in (gens if i >= old else (g,)):
            if not reached[columns[s][x]]:
                reached[columns[s][x]] = True
                members.append(columns[s][x])


def _generating_set(columns):
    """Greedy generating set S: the least element not yet generated
    joins S, then the generated set is closed under S."""
    reached = [False] * len(columns)
    members, gens = [], []
    for g in range(len(columns)):
        if not reached[g]:
            gens.append(g)
            _close(columns, members, reached, gens)
    return tuple(gens)


def _closure_search(rho, greedy):
    """A generating set no larger than greedy, by largest closure.

    Each step adds to T, from the least element of each orbit of
    <rho_t : t in T> outside T's closure, the candidate whose closure
    with T is largest, the least on ties; one per orbit suffices, as
    rho_t, which fixes T's closure, maps a candidate's closure onto its
    image's.  T starts as {0}, as one element generates only itself,
    and the search stops at the first candidate that generates Q.
    greedy is kept when the search finds nothing smaller, and
    unsearched when it already meets the lower bound of one element per
    component; the loop bound keeps it also when it has 2 elements.
    """
    n = len(rho)
    if len(greedy) <= len(_orbits(rho, greedy)[0]):
        return greedy
    gens, members, reached = (0,), [0], [True] + [False] * (n - 1)
    while len(gens) + 1 < len(greedy):
        best = None
        for part in _orbits(rho, gens)[0]:
            c = part[0]
            if reached[c]:
                continue
            grown, inside = members[:], reached[:]
            _close(rho, grown, inside, gens + (c,))
            if len(grown) == n:
                return gens + (c,)
            if best is None or len(grown) > len(best[1]):
                best = c, grown, inside
        c, members, reached = best
        gens += (c,)
    return greedy


def _orbits(rho, gens):
    """Orbits of the right translations rho[s], s in gens, ordered by
    their least element, with an element -> orbit-index map."""
    index = [None] * len(rho)
    steps = [rho[s] for s in gens]
    parts = []
    for a in range(len(rho)):
        if index[a] is not None:
            continue
        orbit = [a]
        index[a] = len(parts)
        for x in orbit:
            for step in steps:
                if index[step[x]] is None:
                    index[step[x]] = len(parts)
                    orbit.append(step[x])
        parts.append(tuple(sorted(orbit)))
    return parts, tuple(index)


def _raise_bad_entry(op):
    """Raise Q1 at the first row of wrong length or with an entry out
    of range, at its least such column, if there is one."""
    n = len(op)
    for a, row in enumerate(op):
        if len(row) != n:
            raise NotAQuandle("Q1", (a,), f"row {a} has wrong length")
        if min(row) < 0 or max(row) >= n:
            b = next(b for b, v in enumerate(row) if not 0 <= v < n)
            raise NotAQuandle("Q1", (a, b), f"entry {row[b]} out of range")


def _raise_q3(columns, gens):
    """Raise Q3 at the first a, then s in S order, then the least b
    with (a*b)*s != (a*s)*(b*s), comparing a whole row of b at a time."""
    op = tuple(zip(*columns))
    at_rho = [itemgetter(*columns[s]) for s in gens]
    for a in range(len(op)):
        at_row_a = itemgetter(*op[a])
        for s, at_rho_s in zip(gens, at_rho):
            rho = columns[s]
            if at_row_a(rho) != at_rho_s(op[rho[a]]):
                b = next(b for b in range(len(op))
                         if rho[op[a][b]] != op[rho[a]][rho[b]])
                raise NotAQuandle("Q3", (a, b, s))


def validate(op_table, grading=None, basepoints=None) -> FiniteQuandle:
    """Check the quandle axioms, then assemble the quandle from its
    distinct columns.

    Each check runs once per distinct right-translation column
    C_b: a -> a*b, in range and invertible (Q2) iff it holds each
    element once.  Q3 is rho_s C_b = C_{b*s} rho_s for s in the
    generating set S: if rho_c and rho_d are automorphisms, so is
    rho_{c*d} = rho_d rho_c rho_d^-1.  A violation is reported at its
    first witness in row order.  A grading must be constant on the
    components and numbered 0..k-1, with one basepoint in each class;
    by default it is the components, with their least elements."""
    n = len(op_table)
    if n < 1:
        raise NotAQuandle("Q1", (), "empty quandle rejected")
    if any(len(row) != n for row in op_table):
        _raise_bad_entry(op_table)
    number = {}  # distinct column -> id, in order of first occurrence
    column_id = [number.setdefault(c, len(number)) for c in zip(*op_table)]
    elements = tuple(range(n))
    whole = set(elements)
    onto = [set(c) == whole for c in number]
    if not all(onto):
        _raise_bad_entry(op_table)
    # one int object per element keeps the gathers below in cache
    distinct = [tuple(map(elements.__getitem__, c)) for c in number]
    columns = tuple(map(distinct.__getitem__, column_id))
    for a in range(n):
        if columns[a][a] != a:
            raise NotAQuandle("Q1", (a,))
    if not all(onto):
        raise NotRightInvertible(column_id.index(onto.index(False)))
    gens = _generating_set(columns)
    # rho_s C_i against C_j rho_s, for the pairs i, j of column ids
    # of b and b*s
    gather = [itemgetter(*column) for column in distinct]
    for s in gens:
        rho = columns[s]
        at_rho = itemgetter(*rho)
        for i, j in set(zip(column_id, map(column_id.__getitem__, rho))):
            if gather[i](rho) != at_rho(distinct[j]):
                _raise_q3(columns, gens)
    parts, index = _orbits(columns, gens)
    grading = index if grading is None else tuple(grading)
    if len(grading) != n:
        raise ValueError("grading length mismatch")
    # constant on components, so preserved: a*b lies in a's
    for part in parts:
        if len({grading[a] for a in part}) != 1:
            raise ValueError(f"grading splits the component {part}")
    classes = sorted(set(grading))
    if classes != list(range(len(classes))):
        raise ValueError("grading indices must be 0..k-1")
    if basepoints is None:
        basepoints = tuple(map(grading.index, classes))
    else:
        basepoints = tuple(basepoints)
        if len(basepoints) != len(classes):
            raise ValueError("need exactly one basepoint per grading class")
        for i, q in enumerate(basepoints):
            if not 0 <= q < n or grading[q] != i:
                raise ValueError(f"basepoint {q} not in class {i}")
    quandle = FiniteQuandle(tuple(distinct), tuple(column_id), grading,
                            basepoints)
    quandle.__dict__["generators"] = gens  # S, where generators caches it
    return quandle


def from_columns(columns, base, over, grading=None, basepoints=None
                 ) -> "QuandleHom":
    """The covering projection x -> over[x] onto base from the quandle
    with a * x = columns[over[x]][a], checked for no axiom and no
    homomorphism: the covering and extension theorems build tables
    whose x*y reads y only through over[y], and make them coverings
    (Q x_f pi_1 and its quotients, Lambda x_f Q, pullbacks and unions
    of coverings).  Equal columns are merged, and numbered by first
    occurrence in x as validate numbers them, in O(n N) for n columns.
    A grading given, with its basepoints, is trusted, as the theorems
    pull it back or make the total connected; by default it is the
    components, with their least elements, the one case that searches
    the generating set, which is otherwise found when first read."""
    over = tuple(over)
    number = {}  # distinct column -> id, by first occurrence in x
    ids = [None] * len(columns)
    for b in dict.fromkeys(over):
        ids[b] = number.setdefault(columns[b], len(number))
    column_id = tuple(map(ids.__getitem__, over))
    distinct = tuple(number)
    if grading is None:
        rho = tuple(map(distinct.__getitem__, column_id))
        parts, grading = _orbits(rho, _generating_set(rho))
        basepoints = tuple(part[0] for part in parts)
    source = FiniteQuandle(distinct, column_id, tuple(grading),
                           tuple(basepoints))
    return fpgroup._unchecked(QuandleHom, source=source, target=base, map=over)


# ---------------------------------------------------------------------------
# constructors


def dihedral(n: int) -> FiniteQuandle:
    """Reflections of the n-gon: a * b = 2b - a mod n."""
    if n < 1:
        raise ValueError("n must be positive")
    return validate([[(2 * b - a) % n for b in range(n)] for a in range(n)])


def trivial(n: int) -> FiniteQuandle:
    """a * b = a everywhere."""
    if n < 1:
        raise ValueError("n must be positive")
    return validate([[a] * n for a in range(n)])


def q_mn(m: int, n: int) -> FiniteQuandle:
    """Two trivial pieces Z_m and Z_n rotating each other by one step.

    Elements 0..m-1 form the Z_m block, m..m+n-1 the Z_n block; acting
    across blocks advances the element inside its own cycle.
    """
    if m < 1 or n < 1:
        raise ValueError("blocks must be nonempty")
    size = m + n
    step = [(a + 1) % m for a in range(m)] + [m + (a + 1) % n
                                              for a in range(n)]
    table = [[a if (a < m) == (b < m) else step[a] for b in range(size)]
             for a in range(size)]
    return validate(table)


def conj_class(group: FiniteGroup, seed: Perm) -> FiniteQuandle:
    """Conjugation quandle on the conjugacy class of the seed element.

    Elements are ordered by BFS discovery (conjugating by the group's
    generators in order); x * y is y^-1 x y.
    """
    seed = tuple(seed)
    if seed not in group:
        raise ValueError("seed does not belong to the group")
    elements, seen = [seed], {seed}
    for x in elements:  # grows while it is read
        for g in group.generators:
            y = permgroup.mul(permgroup.mul(permgroup.inverse(g), x), g)
            if y not in seen:
                seen.add(y)
                elements.append(y)
    index = {x: i for i, x in enumerate(elements)}
    pairs = [(y, permgroup.inverse(y)) for y in elements]
    return validate([[index[permgroup.mul(permgroup.mul(y_inv, x), y)]
                      for y, y_inv in pairs] for x in elements])


def core(group: FiniteGroup) -> FiniteQuandle:
    """Core quandle of a group: a * b = b a^-1 b."""
    elements = group.elements
    index = {x: i for i, x in enumerate(elements)}
    table = [[index[permgroup.mul(permgroup.mul(b, permgroup.inverse(a)), b)]
              for b in elements] for a in elements]
    return validate(table)


def alexander(table, automorphism) -> FiniteQuandle:
    """Alexander quandle of an abelian group with automorphism T.

    The group is given by a multiplication table; the operation is
    a * b = T(a b^-1) b.
    """
    table = [list(row) for row in table]
    k = len(table)
    t = tuple(automorphism)
    if sorted(t) != list(range(k)):
        raise ValueError("automorphism must be a bijection on the group")
    ident = next((e for e in range(k) if all(
        table[e][x] == x == table[x][e] for x in range(k))), None)
    if ident is None:
        raise ValueError("table has no identity")
    for a in range(k):
        for b in range(k):
            if table[a][b] != table[b][a]:
                raise ValueError("group must be abelian")
            if t[table[a][b]] != table[t[a]][t[b]]:
                raise ValueError("map is not an automorphism")
    inv = [0] * k
    for a in range(k):
        for b in range(k):
            if table[a][b] == ident:
                inv[a] = b
    op = [[table[t[table[a][inv[b]]]][b] for b in range(k)] for a in range(k)]
    return validate(op)


# ---------------------------------------------------------------------------
# structure


def components(quandle: FiniteQuandle):
    """Connected components with an element -> component-index map:
    the orbits of the right translations by the generating set."""
    return _orbits(quandle.rho, quandle.generators)


@dataclass(frozen=True)
class QuandleHom:
    """A quandle homomorphism given by its value table.

    section[y] is the least preimage of target element y, or None off
    the image: the one lift of each base element that coverings,
    lifting and extensions read, computed on first use.
    """

    source: FiniteQuandle
    target: FiniteQuandle
    map: tuple

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(self.map))
        if len(self.map) != self.source.n:
            raise NotAHomomorphism(("length",))
        for v in self.map:
            if not 0 <= v < self.target.n:
                raise NotAHomomorphism(("range", v))
        # on the generating set: the s with f(x*s) = f(x)*f(s) for all
        # x form a subquandle
        f, f_at = self.map, self.map.__getitem__
        for s in self.source.generators:
            src, tgt = self.source.rho[s], self.target.rho[f[s]]
            if list(map(f_at, src)) != list(map(tgt.__getitem__, f)):
                a = next(a for a in range(len(f)) if f[src[a]] != tgt[f[a]])
                raise NotAHomomorphism((a, s))

    @cached_property
    def section(self) -> tuple:
        f = self.map
        least = dict(zip(reversed(f), range(len(f) - 1, -1, -1)))
        return tuple(map(least.get, range(self.target.n)))

    def is_surjective(self) -> bool:
        return None not in self.section

    def fibre(self, q: int):
        return tuple(a for a in range(self.source.n) if self.map[a] == q)


def identity_hom(quandle: FiniteQuandle) -> QuandleHom:
    return QuandleHom(quandle, quandle, tuple(range(quandle.n)))


def compose_homs(f: QuandleHom, g: QuandleHom) -> QuandleHom:
    """g after f."""
    if not f.target.same_table(g.source):
        raise ValueError("homomorphisms do not compose")
    return QuandleHom(f.source, g.target, tuple(g.map[v] for v in f.map))


def is_covering(p: QuandleHom):
    """Covering test with a witness.

    True iff p is surjective and fibre-mates have one column id.  Each
    y is compared with its fibre's section element x; if their columns
    differ, they do at a generator a, as the a with a * x = a * y form
    a subquandle (rho_x and rho_y are automorphisms).  Returns (bool,
    witness), the witness being a triple (a, x, y) with a * x != a * y
    although p(x) = p(y), or None when p is not surjective.
    """
    if not p.is_surjective():
        return False, None
    ids, rho = p.source.column_id, p.source.rho
    for y in range(p.source.n):
        x = p.section[p.map[y]]
        if ids[x] != ids[y]:
            a = next(a for a in p.source.generators if rho[x][a] != rho[y][a])
            return False, (a, x, y)
    return True, None


def pullback(p: QuandleHom, f: QuandleHom):
    """Pull a covering p back along f.

    Returns (projection, leg) where projection covers f's source on the
    fibred product {(x, a~) | f(x) = p(a~)} and leg maps into p's
    source.  Elements are ordered lexicographically.
    """
    if not is_covering(p)[0]:
        raise ValueError("p is not a covering")
    if not f.target.same_table(p.target):
        raise ValueError("p and f must share a target")
    x_side, cover = f.source, p.source
    elements = [(x, a) for x in range(x_side.n) for a in range(cover.n)
                if f.map[x] == p.map[a]]
    index = {e: i for i, e in enumerate(elements)}
    # (x, a)*(y, b) = (x*y, a*b), and a*b reads b only through
    # p(b) = f(y), so column (y, b) is column y, which reads y only
    # through its own column and f(y)
    keys, built = tuple(zip(x_side.column_id, f.map)), {}
    for k, v in dict.fromkeys(keys):
        rho_x, rho_a = x_side.columns[k], cover.rho[p.section[v]]
        built[k, v] = tuple(index[(rho_x[x], rho_a[a])] for x, a in elements)
    column = tuple(map(built.__getitem__, keys))
    projection = from_columns(column, x_side, (x for (x, _) in elements))
    # a homomorphism, as the fibred product's operation is coordinatewise
    leg = fpgroup._unchecked(QuandleHom, source=projection.source,
                             target=cover, map=tuple(a for (_, a) in elements))
    return projection, leg


def union_coverings(coverings):
    """Disjoint union of coverings of one base quandle.

    Acting by (b, j) on (a, i) means acting by any lift of p_j(b) in
    summand i, here its section element; that is well defined precisely
    because each summand is a covering.  Returns the covering
    projection of the union.
    """
    coverings = list(coverings)
    if not coverings:
        raise EmptyUnion("union of zero coverings")
    base = coverings[0].target
    for p in coverings:
        if not p.target.same_table(base):
            raise ValueError("coverings must share their base")
        if not is_covering(p)[0]:
            raise ValueError("input is not a covering")
    # (a, i) is element start[i] + a
    start = list(accumulate((p.source.n for p in coverings), initial=0))
    column = [tuple(start[i] + x for i, p in enumerate(coverings)
                    for x in p.source.rho[p.section[y]])
              for y in range(base.n)]
    return from_columns(column, base, (v for p in coverings for v in p.map))
