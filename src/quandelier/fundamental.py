"""Fundamental groups and coverings of finite quandles.

pi_1(Q, q) is the stabilizer of q in Adj(Q), where e_b sends a to a*b,
modulo <e_q>.  Its presentation is the Reidemeister-Schreier rewrite of
the adjoint presentation on its own generating set S over the Schreier
graph of q's component, Tietze-simplified while each cell is lifted,
shortest first, until no generator survives; its abelianisation is H2,
and its enumeration over the trivial subgroup its finite model, whence
pi_1's Cayley table and a pi_1-valued cocycle f on Q.  Every covering
reads that model: the universal cover is Q x pi_1 with (a,g)*(b,h) =
(a*b, g f(a,b)) and deck group pi_1 acting from the left, and the
connected coverings are its quotients by the subgroups of pi_1.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from operator import add

from . import fpgroup, permgroup, quandle as qmod
from .errors import BudgetExceeded, InfiniteGroup
from .fpgroup import CosetTable, Presentation
from .quandle import FiniteQuandle, QuandleHom


# ---------------------------------------------------------------------------
# the Schreier graph on the generating set


def build_complex(quandle: FiniteQuandle, vertices):
    """The 2-cells at the given vertices as (step, cells), for
    fpgroup.simplify_cells to lift as it reads them: cells yields pairs
    (word, start), shortest word first (a stable sort), w_a at each
    vertex a, then each relator of quandle.adjoint at every vertex, about
    n + n^2 (|S| - 1) cells on S = quandle.adjoint.generators.  Edge
    (a, k) runs from a to a*S[k] and is numbered a*|S| + k; step[x][v] is
    the signed edge letter x crosses from vertex v (+k: edge (v, k-1),
    -k: the edge into v, backwards) and the vertex it reaches.  Cells
    lift to closed edge paths; w_a's closes as a*a = a and kills e_a.
    """
    adjoint = quandle.adjoint
    m = len(adjoint.generators)
    step = [None] * (2 * m + 1)
    for k, s in enumerate(adjoint.generators, 1):
        step[k] = [(x * m + k, y) for x, y in enumerate(quandle.rho[s])]
        step[-k] = [(-(y * m + k), y) for y in quandle.rho_inv[s]]
    cells = [(adjoint.words[a], (a,)) for a in vertices]
    cells += [(r, vertices) for r in adjoint.relators]
    return step, ((word, a) for word, starts in
                  sorted(cells, key=lambda cell: len(cell[0]))
                  for a in starts)


@dataclass(frozen=True)
class Pi1Presentation(Presentation):
    """pi_1 on the Schreier graph's edges that survive the Tietze moves:
    images[e - 1] is the signed letter edge e became, or 0, and paths[a]
    the adjoint word (letter +-(b+1) is rho_b^+-1) along the spanning
    tree from the basepoint to a, None off its component; edge (a, s)
    is the loop paths[a], s, paths[a*s]^-1."""

    images: tuple
    paths: tuple


def pi1_presentation(quandle: FiniteQuandle, basepoint: int
                     ) -> Pi1Presentation:
    """pi_1 at the basepoint: the Reidemeister-Schreier rewrite of the
    adjoint presentation on its generating set S, Tietze-simplified as
    it is built.  A BFS along the edges a -> a*s, s in S, crossed either
    way, spans the basepoint's component C, the orbit of the right
    translations (a coarse grading may merge it with others).  Of the
    edges of build_complex, fpgroup.simplify_cells kills the tree and
    those off C on entry, then lifts C's cells, shortest first, through
    its live substitution as it reads them, and stops once no generator
    survives (dihedral(91): after 144 of 8372 cells).  The relators are
    its survivors, which H2 reads as they are.
    """
    if not 0 <= basepoint < quandle.n:
        raise ValueError("basepoint out of range")
    gens = quandle.adjoint.generators
    m = len(gens)
    steps = [(quandle.rho[s], quandle.rho_inv[s]) for s in gens]
    killed = set()  # 1-based edge letters
    paths = [None] * quandle.n
    paths[basepoint], queue = (), [basepoint]
    for v in queue:  # grows while it is read
        for k, (s, (step, back)) in enumerate(zip(gens, steps), 1):
            for e, w, letter in ((v * m + k, step[v], s + 1),
                                 (back[v] * m + k, back[v], -s - 1)):
                if paths[w] is None:
                    paths[w] = paths[v] + (letter,)
                    killed.add(e)
                    queue.append(w)
    killed.update(e for a, path in enumerate(paths) if path is None
                  for e in range(a * m + 1, a * m + m + 1))
    step, cells = build_complex(quandle, [a for a, path in enumerate(paths)
                                          if path is not None])
    pres, images = fpgroup.simplify_cells(quandle.n * m, step, cells, killed)
    return fpgroup._unchecked(Pi1Presentation, **vars(pres), images=images,
                              paths=tuple(paths))


# ---------------------------------------------------------------------------
# Adj(Q) modulo the basepoint generator: a reference the tracer names


def _certify_finite(quandle: FiniteQuandle):
    """Raise InfiniteGroup if the quandle has several components."""
    parts, _ = qmod.components(quandle)
    if len(parts) > 1:
        raise InfiniteGroup(len(parts))


def adj0_enumeration(quandle: FiniteQuandle, basepoint: int,
                     budget: int = fpgroup.DEFAULT_COSET_BUDGET):
    """Cosets of <adj(q)> in Adj(Q), one per degree-zero element, so a
    faithful model of the degree-zero subgroup with its right action,
    and the endpoint of each.  Todd-Coxeter runs on quandle.adjoint's
    |S| generators modulo w_q, so the budget counts its live cosets;
    every other element's column follows in BFS order of its
    definition x = y*s, by c.e_x = ((c.e_s^-1).e_y).e_s.  The table has
    one generator per element, its representative words in element
    letters; endpoint[c] is the basepoint's image under the word.  H1(Q)
    is free abelian on the orbits, so with two or more InfiniteGroup is
    raised before anything is enumerated.
    """
    if not 0 <= basepoint < quandle.n:
        raise ValueError("basepoint out of range")
    _certify_finite(quandle)
    adjoint = quandle.adjoint
    small = fpgroup.todd_coxeter(adjoint, [adjoint.words[basepoint]],
                                 budget=budget)
    gens = adjoint.generators
    action, action_inv = [None] * quandle.n, [None] * quandle.n
    for s, step, back in zip(gens, small.action, small.action_inv):
        action[s], action_inv[s] = step, back
    for x, y, s in adjoint.tree:  # e_x = e_s^-1 e_y e_s
        step, back = action[s], action_inv[s]
        for acts in (action, action_inv):
            acts[x] = tuple(map(step.__getitem__,
                                map(acts[y].__getitem__, back)))
    letters = [None] + [s + 1 for s in gens]
    reps = tuple(tuple(letters[k] if k > 0 else -letters[-k] for k in word)
                 for word in small.representative_word)
    table = CosetTable(generator_count=quandle.n,
                       coset_count=small.coset_count, action=tuple(action),
                       action_inv=tuple(action_inv), representative_word=reps)
    step = (None, *(quandle.rho[s] for s in gens),
            *(quandle.rho_inv[s] for s in reversed(gens)))
    return table, tuple(chain.from_iterable(
        _right_action(small, step, (basepoint,))))


# ---------------------------------------------------------------------------
# the fundamental group and its finite model


def _right_action(table: CosetTable, step, start):
    """The image of start under each coset's representative word, given
    step[x], the action of letter x: coset c is its parent times the
    last letter x of its word, so its image is its parent's under
    step[x].  Over the trivial subgroup the cosets are the elements."""
    words, images = table.representative_word, [start] * table.coset_count
    for c in sorted(range(1, table.coset_count), key=lambda c: len(words[c])):
        x = words[c][-1]
        parent = images[table.apply_letter(c, -x)]
        images[c] = tuple(map(step[x].__getitem__, parent))
    return images


@dataclass(frozen=True)
class FundamentalGroup:
    """pi_1(Q, q), computed only as far as it is read.

    presentation is pi1_presentation's.  regular, pi_1's right regular
    representation, is _regular's on its rotation classes, canonicalised
    as far as the rounds read; it is in standard form, so coset g, the
    element its representative word reads, is numbered by pi_1 and its
    generators alone, whichever round closed.  Reading it raises
    InfiniteGroup for a disconnected quandle before anything is built,
    or Todd-Coxeter's BudgetExceeded past the budget, and order is then
    None; the error is kept, so every later read raises it again at
    once.  Built from it: cayley[g][h] = gh, the one group law every
    covering reads, and the cocycle f of the universal cover Q x pi_1.
    abelian_invariants reads the round that closed, once there is one.
    """

    quandle: FiniteQuandle
    basepoint: int
    budget: int

    @cached_property
    def presentation(self) -> Pi1Presentation:
        return pi1_presentation(self.quandle, self.basepoint)

    @cached_property
    def _enumeration(self):  # (regular, round), or the error it raises
        try:
            _certify_finite(self.quandle)
            pres = self.presentation
            return _regular(pres, fpgroup.rotation_classes(pres.relators),
                            self.budget)
        except BudgetExceeded as error:  # InfiniteGroup included
            return error.with_traceback(None)

    @property
    def regular(self) -> CosetTable:
        if isinstance(self._enumeration, BudgetExceeded):
            raise self._enumeration
        return self._enumeration[0]

    @cached_property
    def cayley(self) -> tuple:
        table = self.regular
        step = (None, *table.action, *reversed(table.action_inv))
        return tuple(zip(*_right_action(table, step,
                                        tuple(range(table.coset_count)))))

    @cached_property
    def cocycle(self) -> tuple:
        """f(a, s) for s in S = quandle.adjoint.generators is the element
        of edge (a, s)'s letter, 1 on the tree.  For each definition
        y = x*s of quandle.adjoint.tree, rho_y = rho_s^-1 rho_x rho_s in
        the cover, so with a' = a/s,
        f(a, y) = f(a', s)^-1 f(a', x) f(a'*x, s)."""
        quandle, table, mul = self.quandle, self.regular, self.cayley
        rho, rho_inv, n = quandle.rho, quandle.rho_inv, quandle.n
        images, adjoint = self.presentation.images, quandle.adjoint
        m = len(adjoint.generators)
        inverse = [row.index(0) for row in mul]
        label = (0, *(g[0] for g in table.action),
                 *(g[0] for g in reversed(table.action_inv)))
        f = [[0] * n for _ in range(n)]
        for k, s in enumerate(adjoint.generators):
            for a in range(n):
                f[a][s] = label[images[a * m + k]]
        for y, x, s in adjoint.tree:
            for a in range(n):
                b = rho_inv[s][a]
                f[a][y] = mul[mul[inverse[f[b][s]]][f[b][x]]][f[rho[x][b]][s]]
        return tuple(map(tuple, f))

    @property
    def order(self):
        enumeration = self._enumeration
        return (None if isinstance(enumeration, BudgetExceeded)
                else enumeration[0].coset_count)

    def abelian_invariants(self) -> fpgroup.AbelianInvariants:
        """pi_1^ab, from the round the model closed on once it has been
        read, as that round presents pi_1 on fewer relators, and from
        the presentation otherwise; it never enumerates."""
        enumeration = vars(self).get("_enumeration")
        return fpgroup.abelian_invariants(
            enumeration[1] if isinstance(enumeration, tuple)
            else self.presentation)


def _regular(pres: Presentation, classes, budget: int):
    """(table, round): pi_1's right regular table in standard form and
    the presentation it closed on, enumerated over the trivial subgroup
    in rounds on the first k of classes, relators with the normal
    closure of pres's, read only as far as the rounds need, within
    min(cap, budget) live cosets.  A word is trivial in <X | R'> exactly
    when it fixes coset 0, so a closed round presents pi_1 once each
    relator of pres, traced from coset 0 through its columns, returns
    there; its standard form depends on pi_1 alone, not on the round.
    k starts at 4|X| + 8, the cap at 1000; a failed trace doubles k, a
    round over its cap doubles k and quadruples the cap, as the peak
    grows with k (S10 transpositions: k = 480 closes within 64000,
    k = 1920 not); once classes holds no more than k, the last round
    reads them all at the budget.  Rounds are built unchecked."""
    k, cap, classes, read = 4 * pres.generator_count + 8, 1000, iter(
        classes), []
    while True:
        read += islice(classes, k + 1 - len(read))  # one more shows if k < all
        prefix = fpgroup._unchecked(Presentation, relators=tuple(read[:k]),
                                    generator_count=pres.generator_count)
        if len(read) <= k:
            return fpgroup.todd_coxeter(prefix, [], budget=budget), prefix
        try:
            table = fpgroup.todd_coxeter(prefix, [], budget=min(cap, budget))
        except BudgetExceeded:
            k, cap = 2 * k, 4 * cap
            continue
        step = (None, *table.action, *reversed(table.action_inv))
        for r in pres.relators:
            c = 0
            for x in r:
                c = step[x][c]
            if c:
                k *= 2
                break
        else:
            return table, prefix


def fundamental_group(quandle: FiniteQuandle, basepoint: int,
                      budget: int = fpgroup.DEFAULT_COSET_BUDGET
                      ) -> FundamentalGroup:
    """pi_1(Q, basepoint), built as far as it is read and made nowhere
    else: the presentation always, the finite model within the budget;
    a disconnected quandle has infinite pi_1 and is not enumerated."""
    if not 0 <= basepoint < quandle.n:
        raise ValueError("basepoint out of range")
    return FundamentalGroup(quandle, basepoint, budget)


# ---------------------------------------------------------------------------
# coverings: Q x pi_1 and its quotients


def _quotient(pi1: FundamentalGroup, subgroup) -> QuandleHom:
    """Q x pi_1 modulo the subgroup K acting from the left.  Its right
    cosets K h are numbered by their least elements h, each the first
    not yet seen in increasing order; element i n + a is (a, K h) for
    the i-th, over a.  Every element over b acts by column b:
    (a, K h) -> (a*b, K h f(a,b)).  The covering theorem makes it a
    connected covering of Q."""
    mul, quandle, n = pi1.cayley, pi1.quandle, pi1.quandle.n
    offset, least = {}, []
    for h in range(len(mul)):
        if h not in offset:
            offset.update((mul[k][h], len(least) * n) for k in subgroup)
            least.append(h)
    values = set(chain.from_iterable(pi1.cocycle))
    # shift[i][t] = n times the index of K least[i] t, t a value of f
    shift = [{t: offset[mul[h][t]] for t in values} for h in least]
    columns = [tuple(chain.from_iterable(map(add, map(row.__getitem__, f_b),
                                             rho_b) for row in shift))
               for f_b, rho_b in zip(zip(*pi1.cocycle), quandle.rho)]
    over = tuple(range(n)) * len(least)
    return qmod.from_columns(columns, quandle, over, (0,) * len(over), (0,))


@dataclass(frozen=True)
class Covering:
    """The connected pointed covering of pi1's base for the subgroup K
    of pi_1, a sorted tuple of rows of pi1.cayley: Q x pi_1 modulo K on
    the pairs (a, K h), its projection built when first read.  Its
    fibre has [pi_1 : K] points; it is Galois exactly when K is normal."""

    pi1: FundamentalGroup
    subgroup: tuple
    normal: bool

    @cached_property
    def projection(self) -> QuandleHom:
        return _quotient(self.pi1, self.subgroup)

    @property
    def cover(self) -> FiniteQuandle:
        return self.projection.source


def universal_cover(pi1: FundamentalGroup) -> Covering:
    """Q x pi_1 with (a,g)*(b,h) = (a*b, g f(a,b)), f the cocycle of
    pi1, element g n + a; its deck group is pi_1 acting from the left.
    Built at the call, which raises as FundamentalGroup.regular does."""
    covering = Covering(pi1, (0,), True)
    covering.projection  # built here, so that every error raises here
    return covering


# ---------------------------------------------------------------------------
# lifting, Galois correspondence, monodromy


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
    if len(qmod.components(x_side)[0]) > 1:
        raise ValueError("the lifting source must be connected")
    x0 = x_side.basepoints[0]
    if not qmod.is_covering(p)[0]:
        raise ValueError("p is not a covering")
    if lift_basepoint is None:
        lift_basepoint = p.section[f.map[x0]]
    if not 0 <= lift_basepoint < p.source.n:
        raise ValueError("lift basepoint outside the cover")
    if p.map[lift_basepoint] != f.map[x0]:
        raise ValueError("basepoint lift does not sit over f(x)")

    cover = p.source
    lift, path, queue = {x0: lift_basepoint}, {x0: ()}, [x0]
    for u in queue:  # grows while it is read
        for b in x_side.generators:
            fb = p.section[f.map[b]]
            for sign, v, w in ((1, x_side.rho[b][u], cover.rho[fb][lift[u]]),
                               (-1, x_side.rho_inv[b][u],
                                cover.rho_inv[fb][lift[u]])):
                if v not in lift:
                    lift[v] = w
                    path[v] = path[u] + (sign * (b + 1),)
                    queue.append(v)
                elif lift[v] != w:
                    return "witness", (path[u] + (sign * (b + 1),), path[v])
    mapping = tuple(lift[a] for a in range(x_side.n))
    return "lift", QuandleHom(x_side, p.source, mapping)


def enumerate_connected_coverings(pi1: FundamentalGroup):
    """All pointed connected coverings of pi1's base, checked to be one
    orbit, whatever its grading says, before pi1 is read: an iterator
    of Coverings, one per subgroup of pi_1, in the order of
    permgroup.subgroups, normal where its conjugacy class has one
    member.  The subgroups are found at the call, so every error raises
    from it; no projection is built until it is read."""
    if len(qmod.components(pi1.quandle)[0]) > 1:
        raise ValueError("covering census needs a connected base")
    return (Covering(pi1, sub, size == 1)
            for sub, size in permgroup.subgroups(pi1.cayley))


def monodromy(p: QuandleHom, pi1: FundamentalGroup):
    """Action of pi1 = pi_1(Q, q) on the fibre of p over q.

    Returns (fibre tuple, permutations): permutations[k] sends fibre
    position i to that of fibre[i] times pi_1's k-th element, the k-th
    row of pi1.cayley.
    A generator of pi_1 is an edge (a, s), whose loop runs along the tree
    to a, across the edge and back, each base element lifting to its
    section element.  Raises ValueError if pi1 is not of p's base, and
    as FundamentalGroup.regular does; builds no Cayley table.
    """
    if not qmod.is_covering(p)[0]:
        raise ValueError("p is not a covering")
    base, rho, rho_inv = p.target, p.source.rho, p.source.rho_inv
    if not pi1.quandle.same_table(base):
        raise ValueError("pi1 is not of the covering's base")
    table = pi1.regular  # before the presentation: it may raise
    pres, gens = pi1.presentation, base.adjoint.generators
    fibre = p.fibre(pi1.basepoint)
    pos = {x: i for i, x in enumerate(fibre)}
    step = []
    for j in range(1, pres.generator_count + 1):
        a, k = divmod(pres.images.index(j), len(gens))
        s = gens[k]
        loop = (pres.paths[a] + (s + 1,)
                + fpgroup.inverse_word(pres.paths[base.rho[s][a]]))
        images = list(fibre)
        for letter in loop:
            b = p.section[abs(letter) - 1]
            images = list(map((rho if letter > 0 else rho_inv)[b].__getitem__,
                              images))
        step.append(tuple(map(pos.__getitem__, images)))
    step = (None, *step, *map(permgroup.inverse, reversed(step)))
    perms = _right_action(table, step, tuple(range(len(fibre))))
    return fibre, tuple(perms)
