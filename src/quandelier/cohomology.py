"""Second homology and cohomology of finite quandles.

H2 of a component is the abelianised fundamental group (Hurewicz);
H^2 with (possibly non-abelian, graded) coefficients is handled through
2-cocycles, coboundary rescaling, and the correspondence with principal
coverings and with homomorphisms out of the fundamental group.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, product
from math import prod

from . import fundamental, quandle as qmod
from .errors import NotACocycle
from .fpgroup import AbelianInvariants
from .quandle import FiniteQuandle, QuandleHom


# ---------------------------------------------------------------------------
# coefficient groups


@dataclass(frozen=True)
class Coeff:
    """A finite coefficient group as a multiplication table.

    Abelian groups built from invariant factors carry labels that are
    exponent tuples; table groups label elements by index.  Identity is
    always element 0 for invariant-factor groups.  inverses[a] is the
    inverse of a, read off the table once.
    """

    table: tuple
    identity: int
    labels: tuple
    invariants: tuple  # () for table groups
    inverses: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "inverses", tuple(
            row.index(self.identity) for row in self.table))

    @classmethod
    def from_invariants(cls, factors):
        factors = tuple(int(d) for d in factors)
        if any(d < 1 for d in factors):
            raise ValueError("invariant factors must be positive")
        labels = tuple(product(*(range(d) for d in factors)))
        index = {lab: i for i, lab in enumerate(labels)}
        table = tuple(
            tuple(index[tuple((x + y) % d
                              for x, y, d in zip(a, b, factors))]
                  for b in labels)
            for a in labels)
        return cls(table=table, identity=0, labels=labels,
                   invariants=factors)

    @classmethod
    def from_table(cls, table, identity):
        table = tuple(tuple(row) for row in table)
        k = len(table)
        if not 0 <= identity < k:
            raise ValueError(f"identity {identity} outside the group")
        if any(sorted(row) != list(range(k)) for row in table):
            raise ValueError("rows must be permutations")
        if any(table[table[a][b]][c] != table[a][table[b][c]]
               for a in range(k) for b in range(k) for c in range(k)):
            raise ValueError("table is not associative")
        if any(table[identity][x] != x or table[x][identity] != x
               for x in range(k)):
            raise ValueError("identity element is wrong")
        return cls(table=table, identity=identity,
                   labels=tuple(range(k)), invariants=())

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def abelian(self) -> bool:
        k = self.order
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(k) for b in range(k))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def hom_count(self, inv: AbelianInvariants) -> int:
        """|Hom(inv, Lambda)| for abelian Lambda: |Lambda|^rank times,
        per torsion factor d, the count of elements whose order, the
        length of the walk of powers to the identity, divides d."""
        orders = []
        for a in range(self.order):
            x, m = a, 1
            while x != self.identity:
                x, m = self.table[x][a], m + 1
            orders.append(m)
        return self.order ** inv.free_rank * prod(
            sum(d % m == 0 for m in orders) for d in inv.torsion)


def graded_coefficients(quandle: FiniteQuandle, coeff):
    """Expand a single Coeff (or a sequence) to one per component."""
    if isinstance(coeff, Coeff):
        return tuple(coeff for _ in quandle.basepoints)
    coeffs = tuple(coeff)
    if len(coeffs) != quandle.component_count:
        raise ValueError("need one coefficient group per component")
    return coeffs


# ---------------------------------------------------------------------------
# integral H2 by the Hurewicz theorem


def h2_integral(quandle: FiniteQuandle):
    """H2 per component, as the abelianised fundamental group, read by
    FundamentalGroup.abelian_invariants at each basepoint.

    The spanning-tree presentation of pi_1(Q, q) is the component's
    2-complex on the adjoint's generating set S modulo a tree, so its
    abelianisation is H2 of the component (Hurewicz); its squares, the
    lifts of the adjoint relators on S, already present Adj(Q), so it
    has the H1 of the full path complex with its n^3 squares.  Nothing
    is enumerated.  A grading class that merges several components
    reports its basepoint's.
    """
    return [fundamental.fundamental_group(quandle, q).abelian_invariants()
            for q in quandle.basepoints]


# ---------------------------------------------------------------------------
# cocycles: a graded 2-cochain is its tuple of n rows, f[a][b] in the
# group of a's component, with identity on the diagonal


def trivial_cocycle(quandle: FiniteQuandle, coeffs) -> tuple:
    coeffs = graded_coefficients(quandle, coeffs)
    return tuple(
        tuple(coeffs[quandle.grading[a]].identity for _ in range(quandle.n))
        for a in range(quandle.n))


def is_cocycle(f, quandle: FiniteQuandle, coeffs):
    """2-cocycle check on the generating set; returns (bool, witness),
    or raises ValueError at an f(a, b) outside a's component's group.

    The condition at (a, b, c) says that rho_c: (u,a) -> (u f(a,c), a*c)
    respects (u,a)*(v,b) = (u f(a,b), a*b) on Lambda x Q.  If rho_c and
    rho_d are automorphisms, so is rho_{c*d} = rho_d rho_c rho_d^-1, so
    the c with rho_c automorphic form a subquandle: c in S suffices.
    """
    coeffs = graded_coefficients(quandle, coeffs)
    n, rho, gr = quandle.n, quandle.rho, quandle.grading
    for a in range(n):
        lam, row = coeffs[gr[a]], f[a]
        if not 0 <= min(row) <= max(row) < lam.order:
            b = next(b for b, u in enumerate(row) if not 0 <= u < lam.order)
            raise ValueError(f"f{a, b} = {row[b]} is outside its group")
        if row[a] != lam.identity:
            return False, (a, a, a)
    for a in range(n):
        lam = coeffs[gr[a]]
        for b in range(n):
            for c in quandle.generators:
                lhs = lam.mul(f[a][b], f[rho[b][a]][c])
                rhs = lam.mul(f[a][c], f[rho[c][a]][rho[c][b]])
                if lhs != rhs:
                    return False, (a, b, c)
    return True, None


def coboundary(quandle: FiniteQuandle, coeffs, g) -> tuple:
    """The cocycle g(a)^-1 g(a*b) obtained by rescaling the trivial one."""
    coeffs = graded_coefficients(quandle, coeffs)
    rows = []
    for a in range(quandle.n):
        lam = coeffs[quandle.grading[a]]
        rows.append(tuple(lam.mul(lam.inv(g[a]), g[column[a]])
                          for column in quandle.rho))
    return tuple(rows)


def are_cohomologous(f, f2, quandle: FiniteQuandle, coeffs):
    """Find a rescaling g with f = g^-1 f2 g between the cocycles f and
    f2, or report absence.

    The relation propagates g along edges a -> a*s, s in S, which reach
    the whole orbit, so only the value at each orbit's least element is
    free; trying those seeds, in the orbit's coefficient group, takes at
    most |Lambda| n |S| steps.  As in is_cocycle, the y whose right
    translations (u, a) -> (u g(a)^-1, a) carries from Lambda x_f Q to
    Lambda x_f2 Q form a subquandle, so agreeing on S is enough.
    """
    coeffs = graded_coefficients(quandle, coeffs)
    rho, gens, g = quandle.rho, quandle.generators, {}
    for part in qmod.components(quandle)[0]:
        lam = coeffs[quandle.grading[part[0]]]
        for seed in range(lam.order):
            assignment, reached = {part[0]: seed}, [part[0]]
            # reached grows while the pairs are read
            for a, s in ((a, s) for a in reached for s in gens):
                c = rho[s][a]
                # g(a*s) = f2(a,s)^-1 g(a) f(a,s)
                val = lam.mul(lam.mul(lam.inv(f2[a][s]), assignment[a]),
                              f[a][s])
                if c not in assignment:
                    assignment[c] = val
                    reached.append(c)
                elif assignment[c] != val:
                    break
            else:
                g.update(assignment)
                break
        else:
            return None
    return tuple(map(g.__getitem__, range(quandle.n)))


def h2_with_coefficients(quandle: FiniteQuandle, coeffs):
    """Class count per component, via Hom(H2, Lambda) = Hom(pi_1, Lambda).

    Returns (H2 invariants, class count) per component.
    """
    coeffs = graded_coefficients(quandle, coeffs)
    if not all(lam.abelian for lam in coeffs):
        raise ValueError("counting needs abelian coefficient groups")
    return [(inv, lam.hom_count(inv))
            for inv, lam in zip(h2_integral(quandle), coeffs)]


# ---------------------------------------------------------------------------
# extensions


@dataclass(frozen=True)
class Extension:
    """A principal graded covering Lambda acting on a total quandle.

    action[i][k] is the permutation of total elements by the k-th
    element of the i-th coefficient group (identity off component i's
    fibres).
    """

    total: FiniteQuandle
    projection: QuandleHom
    coeffs: tuple
    action: tuple


def check_extension(ext: Extension):
    """Verify axioms: equivariant free transitive fibre actions over a
    covering projection.  Returns (bool, reason).

    Fibre-mates act alike on a covering, so x*(k.y) = x*y once k keeps
    fibres.  The y whose right translation commutes with k form a
    subquandle, so left equivariance is checked for y in S.
    """
    ok, wit = qmod.is_covering(ext.projection)
    if not ok:
        return False, f"projection is not a covering: {wit}"
    total, base = ext.total, ext.projection.target
    if len(ext.coeffs) != base.component_count:
        return False, "not one coefficient group per component"
    every = list(range(total.n))
    if len(ext.action) != len(ext.coeffs) or any(
            len(acts) != lam.order or any(sorted(p) != every for p in acts)
            for lam, acts in zip(ext.coeffs, ext.action)):
        return False, "not one permutation of the total per group element"
    size = Counter(ext.projection.map)
    for i, (lam, acts) in enumerate(zip(ext.coeffs, ext.action)):
        for perm in acts:
            for x in range(total.n):
                q = ext.projection.map[x]
                if base.grading[q] != i:
                    if perm[x] != x:
                        return False, "action moves a foreign fibre"
                elif ext.projection.map[perm[x]] != q:
                    return False, "action leaves its fibre"
        for k in range(lam.order):
            for m in range(lam.order):
                if list(map(acts[k].__getitem__, acts[m])) != list(
                        acts[lam.mul(k, m)]):
                    return False, "action is not a homomorphism"
        # acts keeps fibres and is an action: one point per fibre settles it
        for q, x in enumerate(ext.projection.section):
            if base.grading[q] == i and not size[q] == lam.order == len(
                    {perm[x] for perm in acts}):
                return False, f"action not free/transitive on fibre of {q}"
        for perm in acts:
            for y in total.generators:
                column = total.rho[y]
                if list(map(column.__getitem__, perm)) != list(
                        map(perm.__getitem__, column)):
                    return False, "(E1) left equivariance fails"
    return True, None


def extension_from_cocycle(quandle: FiniteQuandle, coeffs, f) -> Extension:
    """The quandle Lambda x_f Q with (u,a)*(v,b) = (u f(a,b), a*b);
    raises NotACocycle, with is_cocycle's witness, if f is none."""
    coeffs = graded_coefficients(quandle, coeffs)
    ok, wit = is_cocycle(f, quandle, coeffs)
    if not ok:
        raise NotACocycle(wit)
    n, rho, gr = quandle.n, quandle.rho, quandle.grading
    tables = [coeffs[gr[a]].table for a in range(n)]
    # (u, a) is element start[a] + u, and u v is tables[a][u][v]
    start = list(accumulate(map(len, tables), initial=0))
    over = tuple(a for a in range(n) for _ in tables[a])
    # (u,a)*(v,b) does not read v: one column per base element b
    columns = [tuple(start[c] + row[f[a][b]]
                     for a, c in enumerate(rho[b]) for row in tables[a])
               for b in range(n)]
    basepoints = tuple(start[q] + coeffs[i].identity
                       for i, q in enumerate(quandle.basepoints))
    projection = qmod.from_columns(columns, quandle, over,
                                   tuple(gr[a] for a in over), basepoints)
    action = tuple(tuple(tuple(start[a] + (row[u] if gr[a] == i else u)
                               for a in range(n)
                               for u in range(len(tables[a])))
                         for row in lam.table)
                   for i, lam in enumerate(coeffs))
    return Extension(total=projection.source, projection=projection,
                     coeffs=coeffs, action=action)


def cocycle_from_extension(ext: Extension) -> tuple:
    """Read the cocycle off the projection's least-element section s:
    s(a)*s(b) = f(a,b) s(a*b), f(a,b) the least k sending s(a*b) there,
    looked up per base element c in moves[c]: k.s(c) -> k.  Raises
    ValueError where no k does, as the action is not transitive."""
    base, section = ext.projection.target, ext.projection.section
    moves = [{perm[s]: k for k, perm in reversed(tuple(enumerate(
                 ext.action[base.grading[c]])))}
             for c, s in enumerate(section)]
    columns = [[moves[c].get(x) for c, x in zip(
                   base.rho[b], map(ext.total.rho[s].__getitem__, section))]
               for b, s in enumerate(section)]
    if any(None in column for column in columns):
        raise ValueError("fibre action misses the product")
    return tuple(zip(*columns))


# ---------------------------------------------------------------------------
# the correspondence with Hom(pi_1, Lambda)


def cocycle_from_hom(pi1: fundamental.FundamentalGroup, coeffs, hom) -> tuple:
    """Cocycle of the extension classified by hom: pi_1 -> Lambda.

    The base must be connected.  hom sends the elements of pi_1 to those
    of Lambda, and the cocycle is hom(f(a,b)) for pi1's own cocycle f,
    with no cover table built.  Raises ValueError unless hom is a map
    of pi1.order entries into Lambda that respects the relators."""
    coeffs = graded_coefficients(pi1.quandle, coeffs)
    if len(hom) != len(pi1.right):
        raise ValueError("hom needs one value per element of pi_1")
    f = tuple(tuple(map(hom.__getitem__, row)) for row in pi1.cocycle)
    ok, wit = is_cocycle(f, pi1.quandle, coeffs)
    if not ok:
        raise ValueError(f"hom was not relator-consistent, witness {wit}")
    return f


def hom_from_extension(ext: Extension, pi1: fundamental.FundamentalGroup):
    """Monodromy of an extension as the map pi1 -> Lambda, pi1 of its
    connected base (monodromy raises ValueError or InfiniteGroup
    otherwise): entry k is the Lambda element by which element k of
    pi_1 shifts the basepoint's least lift, the fibre's first element."""
    fibre, perms = fundamental.monodromy(ext.projection, pi1)
    shift = {ext.action[0][k][fibre[0]]: k
             for k in range(ext.coeffs[0].order)}
    return [shift[fibre[perm[0]]] for perm in perms]


def are_equivalent_extensions(e1: Extension, e2: Extension):
    """A projection-respecting equivariant isomorphism, or None.

    Two extensions are equivalent exactly when their cocycles, read off
    the least-element sections s1 and s2, are cohomologous.  A rescaling
    g with f1(a,b) = g(a)^-1 f2(a,b) g(a*b) gives the isomorphism
    lambda s1(a) -> lambda g(a)^-1 s2(a).  Returns the mapping tuple.
    """
    base = e1.projection.target
    if not base.same_table(e2.projection.target):
        raise ValueError("extensions must share their base")
    if tuple(c.table for c in e1.coeffs) != tuple(c.table
                                                  for c in e2.coeffs):
        raise ValueError("extensions must share their coefficient groups")
    if e1.total.n != e2.total.n:
        return None
    g = are_cohomologous(cocycle_from_extension(e1),
                         cocycle_from_extension(e2), base, e1.coeffs)
    if g is None:
        return None
    phi = [None] * e1.total.n
    for a in range(base.n):
        i = base.grading[a]
        lam = e1.coeffs[i]
        s1, s2 = e1.projection.section[a], e2.projection.section[a]
        g_inv = lam.inv(g[a])
        for k in range(lam.order):
            phi[e1.action[i][k][s1]] = e2.action[i][lam.mul(k, g_inv)][s2]
    return tuple(phi)

