"""Finite permutation groups as explicit element lists.

Permutations are tuples of images on {0,...,d-1}.  mul(p, q) applies p
first, then q; this matches reading words left to right.  Groups are
materialized by BFS closure, so element order is deterministic and all
downstream enumerations are reproducible.
"""

from dataclasses import dataclass, field

from .errors import BudgetExceeded

Perm = tuple

DEFAULT_GROUP_BUDGET = 10_000
DEFAULT_SUBGROUP_BUDGET = 2_000


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def mul(p: Perm, q: Perm) -> Perm:
    """p followed by q: x -> q[p[x]]."""
    return tuple(q[i] for i in p)


def inverse(p: Perm) -> Perm:
    images = [0] * len(p)
    for i, j in enumerate(p):
        images[j] = i
    return tuple(images)


def is_perm(p) -> bool:
    return sorted(p) == list(range(len(p)))


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

    def mul_idx(self, i: int, j: int) -> int:
        return self._index[mul(self.elements[i], self.elements[j])]

    def inv_idx(self, i: int) -> int:
        return self._index[inverse(self.elements[i])]


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
    if any(not is_perm(g) for g in generators):
        raise ValueError("generator is not a permutation")
    if budget < 1:
        raise ValueError("budget must be at least 1")

    ident = identity_perm(degree)
    elements = [ident]
    seen = {ident}
    frontier = 0
    while frontier < len(elements):
        e = elements[frontier]
        frontier += 1
        for g in generators:
            f = mul(e, g)
            if f not in seen:
                if len(elements) >= budget:
                    raise BudgetExceeded(len(elements) + 1, "group closure")
                seen.add(f)
                elements.append(f)
    return FiniteGroup(degree=degree, elements=tuple(elements),
                       generators=generators, identity_index=0)


def orbits(group: FiniteGroup, points=None):
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


def _close_set(seed, group: FiniteGroup) -> frozenset:
    """Subgroup (as an index set) generated by the seed indices."""
    members = set(seed)
    members.add(group.identity_index)
    stack = list(members)
    while stack:
        i = stack.pop()
        j = group.inv_idx(i)
        if j not in members:
            members.add(j)
            stack.append(j)
        for k in list(members):
            for a, b in ((i, k), (k, i)):
                m = group.mul_idx(a, b)
                if m not in members:
                    members.add(m)
                    stack.append(m)
    return frozenset(members)


def subgroups(group: FiniteGroup,
              budget: int = DEFAULT_SUBGROUP_BUDGET):
    """All subgroups of the group, not just up to conjugacy.

    Seeds with the cyclic subgroups and closes upward under pairwise
    joins until a fixed point.  Output is ordered by (order, sorted
    element indices) and always includes the trivial and full subgroup.
    """
    if group.order > budget:
        raise BudgetExceeded(group.order, "subgroup search")
    found = {frozenset({group.identity_index})}
    for i in range(group.order):
        found.add(_close_set({i}, group))
    while True:
        fresh = set()
        current = sorted(found, key=lambda s: (len(s), sorted(s)))
        for ia in range(len(current)):
            for ib in range(ia + 1, len(current)):
                a, b = current[ia], current[ib]
                if a <= b or b <= a:
                    continue
                j = _close_set(a | b, group)
                if j not in found:
                    fresh.add(j)
        if not fresh:
            break
        found |= fresh
    out = []
    for s in sorted(found, key=lambda s: (len(s), sorted(s))):
        members = sorted(s)
        elements = tuple(group.elements[i] for i in members)
        sub = FiniteGroup(degree=group.degree, elements=elements,
                          generators=elements,
                          identity_index=members.index(group.identity_index))
        out.append(sub)
    return out
