"""Finite groups: permutation groups as explicit element lists, and
the subgroups of a group given by its right translations.

Permutations are tuples of images on {0,...,d-1}.  mul(p, q) applies p
first, then q; this matches reading words left to right, and
gather(p)(q) = mul(p, q) computes it as one C-level gather.  Permutation
groups are the input of the quandle constructors conj_class and core,
materialized by BFS closure, so element order is deterministic and all
downstream enumerations are reproducible.  Past those inputs, every
group the package computes in, pi_1 above all, is a multiplication
table.
"""

from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter

from .errors import BudgetExceeded

Perm = tuple

DEFAULT_GROUP_BUDGET = 10_000


def mul(p: Perm, q: Perm) -> Perm:
    """p followed by q: x -> q[p[x]]."""
    return tuple(q[i] for i in p)


def gather(p: Perm):
    """The map q -> mul(p, q), as itemgetter(*p) from degree 2 on; at
    degree 1 that would return a scalar, and at degree 0 raise."""
    return itemgetter(*p) if len(p) > 1 else partial(mul, p)


def inverse(p: Perm) -> Perm:
    images = [0] * len(p)
    for i, j in enumerate(p):
        images[j] = i
    return tuple(images)


@dataclass(frozen=True)
class FiniteGroup:
    """A permutation group held as a deduplicated element list.

    elements[0:] are in BFS-closure order; identity_index locates the
    identity.  Immutable after construction.
    """

    degree: int
    elements: tuple
    generators: tuple
    identity_index: int
    _index: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index",
                           {p: i for i, p in enumerate(self.elements)})

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p) -> bool:
        return p in self._index


def closure(generators, budget: int = DEFAULT_GROUP_BUDGET,
            degree: int = None) -> FiniteGroup:
    """Group generated by the given permutations, via BFS.

    Generators are applied on the right, in input order.  Raises
    BudgetExceeded once the element count passes the budget; degree is
    required when the generator list is empty.
    """
    generators = tuple(tuple(g) for g in generators)
    if degree is None:
        if not generators:
            raise ValueError("degree required for an empty generating set")
        degree = len(generators[0])
    if any(len(g) != degree for g in generators):
        raise ValueError("generators have mixed degrees")
    if any(sorted(g) != list(range(degree)) for g in generators):
        raise ValueError("generator is not a permutation")
    if budget < 1:
        raise ValueError("budget must be at least 1")

    ident = tuple(range(degree))
    elements, seen = [ident], {ident}
    for e in elements:  # grows while it is read
        at_e = gather(e)
        for g in generators:
            f = at_e(g)
            if f not in seen:
                if len(elements) >= budget:
                    raise BudgetExceeded(len(elements) + 1, "group closure")
                seen.add(f)
                elements.append(f)
    return FiniteGroup(degree=degree, elements=tuple(elements),
                       generators=generators, identity_index=0)


def _close(right, sub, seeds) -> frozenset:
    """The subgroup the seeds generate, given a subgroup sub of it and
    right[y][x] = xy: the right cosets sub r reached from 1 by right
    products with the seeds, as h r s lies in sub rs (Dimino).  In a
    finite group that monoid is already closed under inverses."""
    members, reps = set(sub), [0]
    for r in reps:  # grows while it is read
        for s in seeds:
            y = right[s][r]
            if y not in members:
                members.update(map(right[y].__getitem__, sub))
                reps.append(y)
    return frozenset(members)


def subgroups(right, budget: int):
    """Every subgroup of the group right[h][x] = xh, identity 0, not one
    per class, with its class size |G : N(K)|, as (sorted index tuple,
    size) pairs by (order, tuple), within budget closures tried.

    From each conjugacy class's first subgroup A, the trivial one first,
    closes <A, g> = <A, agb> for one g per double coset AgA; a new
    closure J brings its whole class, h^-1 J h for one h per right coset
    N(J)h of its normaliser, as J is generated by its seeds: N(J) holds
    the h with every h^-1 s h in J.  Every subgroup is <1, g1, ..., gk>
    and the found set is a union of classes, so none is missed.
    """
    inv = [c.index(0) for c in right]  # h^-1xh = right[h][right[x][inv[h]]]
    found, classes, tried = {frozenset({0}): 1}, [(frozenset({0}), ())], 0
    for a, seeds in classes:  # grows while it is read
        covered = set(a)
        for g in range(len(right)):
            if g not in covered:  # one g per double coset AgA
                covered.update(right[b][right[g][x]] for x in a for b in a)
                tried += 1
                if tried > budget:
                    raise BudgetExceeded(tried, "subgroup search")
                grown = seeds + (g,)
                j = _close(right, a, grown)
                if j not in found:
                    normaliser = [h for h, i in enumerate(inv) if j.issuperset(
                        right[h][right[s][i]] for s in grown)]
                    size, reached = len(right) // len(normaliser), set()
                    for h, i in enumerate(inv):
                        if h not in reached:  # one h per coset N(J)h
                            c = right[h]
                            reached.update(map(c.__getitem__, normaliser))
                            found[frozenset(c[right[x][i]] for x in j)] = size
                    classes.append((j, grown))
    return sorted(((tuple(sorted(sub)), size) for sub, size in found.items()),
                  key=lambda pair: (len(pair[0]), pair[0]))
