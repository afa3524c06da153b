"""Fundamental groups and coverings of finite quandles.

pi_1(Q, q) is the stabilizer of q in Adj(Q), where e_b sends a to a*b,
modulo <e_q>.  Its presentation is the Reidemeister-Schreier rewrite of
the adjoint presentation on S over the Schreier graph of q's component,
Tietze-simplified while the cells are lifted, up to the point where no
generator survives; its abelianisation is H2, and its enumeration over
the trivial subgroup its finite model.  The stabilizer of q in the
enumeration of Adj(Q) modulo <e_q> is the universal cover's deck group.
"""

from dataclasses import dataclass
from functools import cached_property

from . import fpgroup, permgroup, quandle as qmod
from .errors import BudgetExceeded, InfiniteGroup
from .fpgroup import CosetTable, Presentation
from .permgroup import FiniteGroup
from .quandle import FiniteQuandle, QuandleHom


# ---------------------------------------------------------------------------
# the Schreier graph on the generating set


def build_complex(quandle: FiniteQuandle, vertices):
    """Boundary words of the 2-cells at the given vertices, each lifted
    when read: the lift of w_a at each vertex a, then the lift of each
    relator of quandle.adjoint, the presentation on S, at every vertex.

    Edge (a, k) runs from a to a*S[k] and is numbered a*|S| + k; a word
    is a tuple of signed 1-based edge numbers forming a closed edge
    path.  Letter +k crosses edge (x, k-1) forwards from the current
    vertex x, letter -k the edge into x backwards.  The lift of w_a
    closes as a*a = a; it kills e_a, which is conjugate to e_q.
    """
    m = len(quandle.generators)
    # step[letter][x]: the signed edge that letter crosses from x, and
    # the vertex it reaches
    step = [None] * (2 * m + 1)
    for k, s in enumerate(quandle.generators, 1):
        step[k] = [(x * m + k, row[s]) for x, row in enumerate(quandle.op)]
        step[-k] = [(-(row[s] * m + k), row[s]) for row in quandle.inv_op]
    adjoint = quandle.adjoint

    def lift(a, word):
        path = []
        for letter in word:
            e, a = step[letter][a]
            path.append(e)
        return tuple(path)

    for a in vertices:
        yield lift(a, adjoint.words[a])
    for r in adjoint.relators:
        for a in vertices:
            yield lift(a, r)


def pi1_presentation(quandle: FiniteQuandle, basepoint: int) -> Presentation:
    """pi_1 at the basepoint: the Reidemeister-Schreier rewrite of the
    adjoint presentation on S, Tietze-simplified as it is built.

    A BFS along the edges a -> a*s, s in S, crossed either way, builds a
    spanning tree of the basepoint's component C: the orbit of the right
    translations, which a coarse grading may merge with others.  The
    generators are the edges of build_complex; fpgroup.simplify kills
    the tree and the edges off C on entry, leaving |C||S| - (|C| - 1),
    then reads the cells at C's vertices as they are lifted, and stops
    once no generator survives (half-way on odd dihedral quandles).
    """
    if not 0 <= basepoint < quandle.n:
        raise ValueError("basepoint out of range")
    m = len(quandle.generators)
    op, inv_op = quandle.op, quandle.inv_op
    killed = set()  # 1-based edge letters
    visited = {basepoint}
    frontier = [basepoint]
    while frontier:
        nxt = []
        for v in frontier:
            for k, s in enumerate(quandle.generators, 1):
                for e, w in ((v * m + k, op[v][s]),
                             (inv_op[v][s] * m + k, inv_op[v][s])):
                    if w not in visited:
                        visited.add(w)
                        killed.add(e)
                        nxt.append(w)
        frontier = nxt
    killed.update(e for a in set(range(quandle.n)) - visited
                  for e in range(a * m + 1, a * m + m + 1))
    cells = build_complex(quandle, sorted(visited))
    return fpgroup.simplify(quandle.n * m, cells, killed)[0]


# ---------------------------------------------------------------------------
# coset enumeration of Adj(Q) modulo the basepoint generator


def _certify_finite(quandle: FiniteQuandle):
    """Raise InfiniteGroup if the quandle has several components."""
    parts, _ = qmod.components(quandle)
    if len(parts) > 1:
        raise InfiniteGroup(len(parts))


def adj0_enumeration(quandle: FiniteQuandle, basepoint: int,
                     budget: int = fpgroup.DEFAULT_COSET_BUDGET):
    """Cosets of <adj(q)> in Adj(Q), with the endpoint of each coset.

    Each coset holds exactly one degree-zero element, so the table is a
    faithful model of the degree-zero subgroup with its right action.
    The enumeration runs on the |S| generators of quandle.adjoint,
    modulo the word w_q, so the budget counts the live cosets of that
    enumeration.  The table is then filled in for every other element
    in BFS order of its definition x = y*s, by
    c.e_x = ((c.e_s^-1).e_y).e_s, one lookup per coset.
    The returned table has one generator per element, and its
    representative words are written in element letters.  endpoint[c]
    is the image of the basepoint under the representative word,
    traced through the right translations.

    H1(Q) is free abelian on the components, so with k >= 2 of them the
    cosets map onto Z^(k-1): InfiniteGroup is raised before anything is
    enumerated.  The components counted are the orbits of the right
    translations, not the grading classes, which a grading pulled back
    from a base can make coarser.
    """
    if not 0 <= basepoint < quandle.n:
        raise ValueError("basepoint out of range")
    _certify_finite(quandle)
    adjoint = quandle.adjoint
    small = fpgroup.todd_coxeter(adjoint, [adjoint.words[basepoint]],
                                 budget=budget)
    gens = quandle.generators
    action = [None] * quandle.n
    action_inv = [None] * quandle.n
    for s, step, back in zip(gens, small.action, small.action_inv):
        action[s], action_inv[s] = step, back
    for x, y, s in adjoint.tree:  # e_x = e_s^-1 e_y e_s
        step, back = action[s], action_inv[s]
        action[x] = tuple(map(step.__getitem__,
                              map(action[y].__getitem__, back)))
        action_inv[x] = tuple(map(step.__getitem__,
                                  map(action_inv[y].__getitem__, back)))
    letters = [None] + [s + 1 for s in gens]
    reps = tuple(tuple(letters[k] if k > 0 else -letters[-k] for k in word)
                 for word in small.representative_word)
    table = CosetTable(generator_count=quandle.n,
                       coset_count=small.coset_count, action=tuple(action),
                       action_inv=tuple(action_inv), representative_word=reps)
    endpoints = []
    for word in reps:
        x = basepoint
        for letter in word:
            g = abs(letter) - 1
            x = quandle.op[x][g] if letter > 0 else quandle.inv_op[x][g]
        endpoints.append(x)
    return table, tuple(endpoints)


def deck_group(table: CosetTable, endpoints, basepoint: int) -> FiniteGroup:
    """pi_1 as a permutation group acting on the cosets from the left.

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
    identity_index = stabilizer.index(0)
    return FiniteGroup(degree=table.coset_count, elements=perms,
                       generators=perms, identity_index=identity_index)


# ---------------------------------------------------------------------------
# universal covering


@dataclass(frozen=True)
class UniversalCover:
    """The universal covering quandle of a connected quandle.

    Cover element c is coset c of the enumeration based at the base's
    basepoint, lying over endpoints[c]; deck is pi_1(Q, q) acting on
    the cosets, built on first use.
    """

    base: FiniteQuandle
    cover: FiniteQuandle
    projection: QuandleHom
    table: CosetTable
    endpoints: tuple

    @cached_property
    def deck(self) -> FiniteGroup:
        return deck_group(self.table, self.endpoints, self.base.basepoints[0])


def universal_cover(quandle: FiniteQuandle,
                    budget: int = fpgroup.DEFAULT_COSET_BUDGET
                    ) -> UniversalCover:
    """Build the universal covering on pairs (endpoint, coset).

    The operation (a,g)*(b,h) = (a*b, g adj(a)^-1 adj(b)) becomes right
    multiplication in the coset table.  A word g ending at a has
    adj(a) = g^-1 adj(q) g, which fixes the coset <adj(q)> g, so cell
    (c, d) is coset c times adj(ends[d]): column d is the action of
    ends[d], and there are at most n distinct columns.  Raises
    InfiniteGroup for a disconnected quandle and BudgetExceeded when
    the degree-zero subgroup is too large.
    """
    q = quandle.basepoints[0]
    table, ends = adj0_enumeration(quandle, q, budget=budget)
    cover = qmod.validate(tuple(zip(*map(table.action.__getitem__, ends))))
    return UniversalCover(base=quandle, cover=cover,
                          projection=QuandleHom(cover, quandle, ends),
                          table=table, endpoints=ends)


# ---------------------------------------------------------------------------
# the fundamental group


@dataclass(frozen=True)
class FundamentalGroup:
    """pi_1(Q, q): a presentation always, a finite model when possible.

    regular is the coset enumeration of the presentation over the
    trivial subgroup, pi_1's right regular representation, or None
    when pi_1 is infinite or over budget.  Its coset count is the
    order, and finite_form is pi_1 acting on those cosets, each of
    which ends at the basepoint, from the left, built on first use.
    """

    basepoint: int
    presentation: Presentation
    regular: CosetTable

    @cached_property
    def finite_form(self) -> FiniteGroup:
        if self.regular is None:
            return None
        return deck_group(self.regular, (self.basepoint,) * self.order,
                          self.basepoint)

    @property
    def order(self):
        return None if self.regular is None else self.regular.coset_count

    def abelian_invariants(self) -> fpgroup.AbelianInvariants:
        return fpgroup.abelian_invariants(self.presentation)


def fundamental_group(quandle: FiniteQuandle, basepoint: int,
                      budget: int = fpgroup.DEFAULT_COSET_BUDGET
                      ) -> FundamentalGroup:
    """Compute pi_1(Q, basepoint).

    The presentation is always returned; the finite model only when pi_1
    is finite and its enumeration stays within the budget of live
    cosets.  A disconnected quandle has infinite pi_1 and is not
    enumerated.
    """
    pres = pi1_presentation(quandle, basepoint)
    try:
        _certify_finite(quandle)
        regular = fpgroup.todd_coxeter(pres, [], budget=budget)
    except BudgetExceeded:  # InfiniteGroup included
        regular = None
    return FundamentalGroup(basepoint=basepoint, presentation=pres,
                            regular=regular)


# ---------------------------------------------------------------------------
# lifting, Galois correspondence, monodromy


def right_action_on_cover(p: QuandleHom, element: int, word) -> int:
    """Apply an adjoint word (letters name base elements) to a cover
    element, lifting each letter to its section element; well defined
    because p is a covering."""
    x = element
    for letter in word:
        b = p.section[abs(letter) - 1]
        x = p.source.op[x][b] if letter > 0 else p.source.inv_op[x][b]
    return x


def check_lifting(f: QuandleHom, p: QuandleHom, lift_basepoint: int = None):
    """Lifting criterion: try to lift f through the covering p.

    f must start from a connected pointed quandle (X, x) with
    f(x) = p(lift_basepoint), by default the section element over f(x).
    The lift is propagated by BFS along the right translations by the
    generating set S of X, which reach all of the connected X, and is
    checked on the same edges: the b for which it respects rho_b form a
    subquandle.  Returns ("lift", QuandleHom) with the unique lift, or
    ("witness", (word1, word2)) where the two adjoint words reach the
    same element of X but force different lifts.
    """
    x_side = f.source
    if not x_side.is_connected():
        raise ValueError("the lifting source must be connected")
    x0 = x_side.basepoints[0]
    ok, _ = qmod.is_covering(p)
    if not ok:
        raise ValueError("p is not a covering")
    if lift_basepoint is None:
        lift_basepoint = p.section[f.map[x0]]
    if p.map[lift_basepoint] != f.map[x0]:
        raise ValueError("basepoint lift does not sit over f(x)")

    cover = p.source
    lift = {x0: lift_basepoint}
    path = {x0: ()}
    queue = [x0]
    while queue:
        u = queue.pop(0)
        for b in x_side.generators:
            fb = p.section[f.map[b]]
            for sign, v, w in ((1, x_side.op[u][b], cover.op[lift[u]][fb]),
                               (-1, x_side.inv_op[u][b],
                                cover.inv_op[lift[u]][fb])):
                if v not in lift:
                    lift[v] = w
                    path[v] = path[u] + (sign * (b + 1),)
                    queue.append(v)
                elif lift[v] != w:
                    return "witness", (path[u] + (sign * (b + 1),), path[v])
    mapping = tuple(lift[a] for a in range(x_side.n))
    return "lift", QuandleHom(x_side, p.source, mapping)


def enumerate_connected_coverings(quandle: FiniteQuandle, basepoint: int,
                                  budget: int = fpgroup.DEFAULT_COSET_BUDGET):
    """All pointed connected coverings, one per subgroup of pi_1.

    Requires a connected base.  Each subgroup K yields the quotient of
    the universal cover by the left K-action, whose elements are the
    K-orbits on the cosets, ordered by least element; the list is
    ordered like the subgroup enumeration (by order, then element
    indices).  Returns pairs (K, covering projection).
    """
    if not quandle.is_connected():
        raise ValueError("base quandle must be connected")
    table, ends = adj0_enumeration(quandle, basepoint, budget=budget)
    deck = deck_group(table, ends, basepoint)
    out = []
    for sub in permgroup.subgroups(deck):
        orbits = permgroup.orbits(sub)
        orbit_of = [None] * table.coset_count
        for i, orbit in enumerate(orbits):
            for c in orbit:
                orbit_of[c] = i
        reps = [orbit[0] for orbit in orbits]
        # cell (c, d) is coset c times adj(ends[d]), as in the
        # universal cover, so column d depends on ends[d] only
        column = {e: tuple(orbit_of[table.action[e][c]] for c in reps)
                  for e in {ends[d] for d in reps}}
        total = qmod.validate(tuple(zip(*(column[ends[d]] for d in reps))))
        proj = QuandleHom(total, quandle, tuple(ends[c] for c in reps))
        out.append((sub, proj))
    return out


def monodromy(p: QuandleHom, basepoint: int,
              budget: int = fpgroup.DEFAULT_COSET_BUDGET):
    """Action of pi_1(Q, basepoint) on the fibre over the basepoint.

    Returns (pi1 finite form, fibre tuple, permutations) where
    permutations[k] describes how the k-th pi_1 element permutes the
    fibre (as images indexed like the fibre tuple): its stabilizer
    coset, perm[0] of its deck permutation, has a representative word
    that right_action_on_cover traces from each fibre element.  Needs
    the finite form, so it propagates BudgetExceeded for infinite pi_1
    and InfiniteGroup for a disconnected base.
    """
    ok, _ = qmod.is_covering(p)
    if not ok:
        raise ValueError("p is not a covering")
    base = p.target
    table, ends = adj0_enumeration(base, basepoint, budget=budget)
    deck = deck_group(table, ends, basepoint)
    fibre = p.fibre(basepoint)
    pos = {x: i for i, x in enumerate(fibre)}
    perms = tuple(
        tuple(pos[right_action_on_cover(
            p, x, table.representative_word[perm[0]])] for x in fibre)
        for perm in deck.elements)
    return deck, fibre, perms
