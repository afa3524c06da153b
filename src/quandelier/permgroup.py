"""Finite groups: permutation groups as explicit element lists, and
the subgroups of a group given by its Cayley table.

Permutations are tuples of images on {0,...,d-1}.  mul(p, q) applies p
first, then q; this matches reading words left to right.  Permutation
groups are the input of the quandle constructors conj_class and core,
materialized by BFS closure, so element order is deterministic and all
downstream enumerations are reproducible.  Past those inputs, every
group the package computes in, pi_1 above all, is a multiplication
table.
"""

from dataclasses import dataclass, field

from .errors import BudgetExceeded

Perm = tuple

DEFAULT_GROUP_BUDGET = 10_000
DEFAULT_SUBGROUP_BUDGET = 2_000


def mul(p: Perm, q: Perm) -> Perm:
    """p followed by q: x -> q[p[x]]."""
    return tuple(q[i] for i in p)


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
        for g in generators:
            f = mul(e, g)
            if f not in seen:
                if len(elements) >= budget:
                    raise BudgetExceeded(len(elements) + 1, "group closure")
                seen.add(f)
                elements.append(f)
    return FiniteGroup(degree=degree, elements=tuple(elements),
                       generators=generators, identity_index=0)


def _close(cayley, seeds) -> frozenset:
    """The subgroup generated by the seed elements: a BFS from the
    identity 0 that multiplies on the right by each seed.  In a finite
    group that monoid is already closed under inverses."""
    members = [0]
    seen = {0}
    for x in members:
        row = cayley[x]
        for s in seeds:
            y = row[s]
            if y not in seen:
                seen.add(y)
                members.append(y)
    return frozenset(seen)


def subgroups(cayley, budget: int = DEFAULT_SUBGROUP_BUDGET):
    """All subgroups of the group with the given Cayley table, identity
    0, not just up to conjugacy, as sorted tuples of element indices.

    Seeds with the cyclic subgroups and joins each pair of found
    subgroups, the joins found included, until a fixed point; a join is
    closed from the generators of its two parts.  Output is ordered by
    (order, sorted element indices) and always includes the trivial and
    full subgroup.
    """
    if len(cayley) > budget:
        raise BudgetExceeded(len(cayley), "subgroup search")
    gens = {frozenset({0}): ()}
    for i in range(len(cayley)):
        gens.setdefault(_close(cayley, (i,)), (i,))
    found = list(gens)
    for j, b in enumerate(found):
        for a in found[:j]:
            if a <= b or b <= a:
                continue
            seeds = gens[a] + gens[b]
            join = _close(cayley, seeds)
            if join not in gens:
                gens[join] = seeds
                found.append(join)
    return sorted((tuple(sorted(s)) for s in found),
                  key=lambda s: (len(s), s))
