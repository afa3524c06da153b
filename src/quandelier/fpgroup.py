"""Finitely presented groups: adjoint presentations, HLT coset
enumeration, exact Smith normal form, and abelian invariants.

Words are tuples of signed 1-based generator numbers: letter +k is
generator k-1, letter -k its inverse.  Words are not reduced on
construction; relator scans need the raw letters.
"""

from dataclasses import dataclass
from math import gcd

from .errors import BudgetExceeded
from .permgroup import FiniteGroup

DEFAULT_COSET_BUDGET = 1_000_000
DEFAULT_HOM_BUDGET = 1 << 20

Word = tuple


def normalize(word) -> Word:
    """Freely reduce a word (cancel adjacent inverse pairs)."""
    out = []
    for letter in word:
        if letter == 0:
            raise ValueError("0 is not a valid letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def inverse_word(word) -> Word:
    return tuple(-letter for letter in reversed(word))


@dataclass(frozen=True)
class Presentation:
    generator_count: int
    relators: tuple

    def __post_init__(self):
        for i, r in enumerate(self.relators):
            if 0 in r or max(map(abs, r), default=0) > self.generator_count:
                raise ValueError(f"relator {i} has a letter out of range")


@dataclass(frozen=True)
class AdjointPresentation(Presentation):
    """Adj(Q) on the generating set S, with the words that eliminated
    the other generators: words[x] is w_x, and tree lists the
    definitions (x*s, x, s) in BFS order."""

    words: tuple
    tree: tuple


def adjoint_presentation(quandle) -> AdjointPresentation:
    """Presentation of the adjoint group of a finite quandle on S.

    Adj(Q) is presented by one generator e_x per element and the
    relators e_s^-1 e_a e_s e_{a*s}^-1 for a in Q and s in the
    generating set S: conjugation by c*d = d^-1 c d acts as
    rho_d rho_c rho_d^-1 = rho_{c*d} (Q3), so the pairs with s in S
    suffice.  Tietze moves then eliminate every e_x with x not in S by
    a word w_x over S: letter k is e_s for s = S[k-1].  A BFS from S,
    in order, along the right translations x -> x*s with s in S reaches
    every element, as S generates Q; each element x*s it reaches first
    gets the free reduction of w_{x*s} = s^-1 w_x s, as
    e_{x*s} = e_s^-1 e_x e_s in Adj(Q).  What is left has |S|
    generators and the relators s^-1 w_a s w_{a*s}^-1, free-reduced and
    deduplicated; the pairs used as definitions, and a = s, reduce to
    the empty word and are omitted.
    """
    op, gens = quandle.op, quandle.generators
    words = [None] * quandle.n
    for k, s in enumerate(gens, 1):
        words[s] = (k,)
    tree = []
    frontier = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for k, s in enumerate(gens, 1):
                y = op[x][s]
                if words[y] is None:
                    words[y] = normalize((-k,) + words[x] + (k,))
                    tree.append((y, x, s))
                    nxt.append(y)
        frontier = nxt
    relators = []
    seen = set()
    for a in range(quandle.n):
        for k, s in enumerate(gens, 1):
            w = normalize((-k,) + words[a] + (k,)
                          + inverse_word(words[op[a][s]]))
            if w and w not in seen:
                seen.add(w)
                relators.append(w)
    return AdjointPresentation(generator_count=len(gens),
                               relators=tuple(relators),
                               words=tuple(words), tree=tuple(tree))


@dataclass(frozen=True)
class CosetTable:
    """Complete collapsed coset table from a terminated enumeration.

    action[g] is the permutation of cosets induced by generator g,
    action_inv[g] its inverse; coset 0 is the subgroup coset.
    representative_word[c] is a Schreier word taking coset 0 to c.
    """

    generator_count: int
    coset_count: int
    action: tuple
    action_inv: tuple
    representative_word: tuple

    def apply_letter(self, coset: int, letter: int) -> int:
        if letter > 0:
            return self.action[letter - 1][coset]
        return self.action_inv[-letter - 1][coset]

    def trace(self, coset: int, word) -> int:
        for letter in word:
            coset = self.apply_letter(coset, letter)
        return coset


def todd_coxeter(presentation: Presentation, subgroup_generators=(),
                 budget: int = DEFAULT_COSET_BUDGET) -> CosetTable:
    """HLT coset enumeration with immediate coincidence processing.

    Enumerates the cosets of the subgroup generated by the given words.
    Cosets are numbered in definition order and relators scanned in a
    fixed order, so the result is deterministic.  Raises BudgetExceeded
    with the live-coset count if the table grows past the budget.

    The table is stored by column: table[x][c] is coset c times column
    x, where column 2g is generator g and 2g + 1 its inverse, and all
    columns grow together by doubling.  Each relator is resolved once
    to the columns its letters read forwards and backwards.  A relator
    whose forward scan already closes at a coset is passed over
    without the full scan, which would change nothing there.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    ngens = presentation.generator_count
    ncols = 2 * ngens
    table = [[None] for _ in range(ncols)]
    capacity = 1
    size = 1  # cosets defined, dead ones included
    parent = [0]
    live = 1

    def scans(words):
        out = []
        for w in words:
            cols = tuple(2 * (abs(letter) - 1) + (letter < 0)
                         for letter in w)
            out.append((cols, tuple(table[x] for x in cols),
                        tuple(table[x ^ 1] for x in cols)))
        return out

    relator_scans = scans(presentation.relators)
    subgroup_scans = scans(subgroup_generators)

    def rep(c):
        r = c
        while parent[r] != r:
            r = parent[r]
        while parent[c] != r:
            parent[c], c = r, parent[c]
        return r

    def define(alpha, x):
        nonlocal live, size, capacity
        if live >= budget:
            raise BudgetExceeded(live, "coset enumeration")
        beta = size
        if beta == capacity:
            for column in table:
                column.extend([None] * capacity)
            capacity *= 2
        size += 1
        parent.append(beta)
        live += 1
        table[x][alpha] = beta
        table[x ^ 1][beta] = alpha
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

    pairs = [(table[x], table[x ^ 1]) for x in range(ncols)]

    def coincidence(a, b):
        queue = []
        merge(a, b, queue)
        head = 0
        while head < len(queue):
            gamma = queue[head]
            head += 1
            for column, back in pairs:
                delta = column[gamma]
                if delta is None:
                    continue
                back[delta] = None
                mu, nu = rep(gamma), rep(delta)
                if column[mu] is not None:
                    merge(nu, column[mu], queue)
                elif back[nu] is not None:
                    merge(mu, back[nu], queue)
                else:
                    column[mu] = nu
                    back[nu] = mu

    def scan_and_fill(alpha, cols, forward, backward):
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j and forward[i][f] is not None:
                f = forward[i][f]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and backward[j][b] is not None:
                b = backward[j][b]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                forward[i][f] = b
                backward[i][b] = f
                return
            define(f, cols[i])

    for cols, forward, backward in subgroup_scans:
        scan_and_fill(0, cols, forward, backward)
    alpha = 0
    while alpha < size:
        if parent[alpha] != alpha:
            alpha += 1
            continue
        for cols, forward, backward in relator_scans:
            f = alpha
            try:
                for column in forward:
                    f = column[f]
            except TypeError:  # a list indexed by None: a gap
                pass
            else:
                if f == alpha:
                    continue
            scan_and_fill(alpha, cols, forward, backward)
            if parent[alpha] != alpha:
                break
        if parent[alpha] == alpha:
            for x in range(ncols):
                if table[x][alpha] is None:
                    define(alpha, x)
        alpha += 1

    # compact to live cosets, keeping definition order
    old_live = [c for c in range(size) if parent[c] == c]
    renumber = [None] * size
    for i, c in enumerate(old_live):
        renumber[c] = i
    n = len(old_live)
    columns = [tuple(renumber[rep(column[c])] for c in old_live)
               for column in table]
    action, action_inv = columns[0::2], columns[1::2]

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

    return CosetTable(generator_count=ngens, coset_count=n,
                      action=tuple(action), action_inv=tuple(action_inv),
                      representative_word=tuple(reps))


# ---------------------------------------------------------------------------
# Smith normal form, exact over the integers


def smith_normal_form(matrix):
    """Nonzero diagonal entries d1 | d2 | ... of the Smith normal form.

    Exact big-int arithmetic; no unimodular transforms are kept.  Zero
    rows are dropped first.  The entry of least absolute value is the
    pivot; the other rows are reduced by its row, and once its column
    is clear, its row by its column.  A remainder becomes the next,
    smaller pivot; a clean pivot leaves the matrix with its row and
    column.  The diagonal so found is then brought into a divisibility
    chain by gcd/lcm pairs, as Z_a + Z_b = Z_gcd + Z_lcm.
    """
    rows = [list(row) for row in matrix if any(row)]
    diagonal = []
    while rows:
        _, pi, pj = min((abs(a), i, j) for i, row in enumerate(rows)
                        for j, a in enumerate(row) if a)
        prow = rows[pi]
        p = prow[pj]
        clean = True
        for row in rows:
            if row is not prow and row[pj]:
                q = row[pj] // p
                row[:] = [a - q * b for a, b in zip(row, prow)]
                clean = clean and not row[pj]
        if clean:
            # column pj is zero off the pivot: column operations touch
            # the pivot row only
            for j, a in enumerate(prow):
                if a and j != pj:
                    prow[j] = a % p
                    clean = clean and not prow[j]
        if clean:
            diagonal.append(abs(p))
            rows = [row[:pj] + row[pj + 1:] for row in rows
                    if row is not prow]
        rows = [row for row in rows if any(row)]
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            g = gcd(diagonal[i], diagonal[j])
            diagonal[i], diagonal[j] = g, diagonal[i] * diagonal[j] // g
    return diagonal


def _snf_invariants_sparse(entries):
    """Invariant factors (nonzero, d1 | d2 | ...) of a sparse matrix.

    entries is a dict (i, j) -> value.  Unit pivots are eliminated by
    sparse row operations.  A row whose one entry is +-1 goes first:
    clearing its column kills one generator and creates no fill (an
    abelian Tietze move).  Only when there is none does the pivot fall
    back to the column with the fewest rows that holds a +-1, and within
    it the shortest row.  Whatever has no unit left goes through the
    dense smith_normal_form.
    """
    row_cols = {}
    col_rows = {}
    for (i, j), val in entries.items():
        if val:
            row_cols.setdefault(i, {})[j] = val
            col_rows.setdefault(j, set()).add(i)
    singles = [i for i, cols in row_cols.items() if len(cols) == 1]
    ones = 0
    while True:
        pivot = None
        while singles and pivot is None:
            i = singles.pop()
            if len(row_cols.get(i, ())) == 1:
                (j, val), = row_cols[i].items()
                if abs(val) == 1:
                    pivot = (i, j, val)
        if pivot is None:
            for j in sorted(col_rows, key=lambda j: (len(col_rows[j]), j)):
                units = [(len(row_cols[i]), i, row_cols[i][j])
                         for i in col_rows[j] if abs(row_cols[i][j]) == 1]
                if units:
                    _, i, val = min(units)
                    pivot = (i, j, val)
                    break
            else:
                break
        pi, pj, pval = pivot
        prow = row_cols.pop(pi)
        for j in prow:
            col_rows[j].discard(pi)
        for i in col_rows.pop(pj):
            q = row_cols[i][pj] * pval  # pval in {1,-1}: row_i -= q * prow
            target = row_cols[i]
            for j, val in prow.items():
                newval = target.get(j, 0) - q * val
                if newval:
                    target[j] = newval
                    col_rows[j].add(i)
                elif j in target:
                    del target[j]
                    if j != pj:
                        col_rows[j].discard(i)
            if not target:
                del row_cols[i]
            elif len(target) == 1:
                singles.append(i)
        for j in prow:
            if j != pj and not col_rows[j]:
                del col_rows[j]
        ones += 1
    factors = [1] * ones
    if row_cols:
        cols_left = sorted(col_rows)
        factors.extend(smith_normal_form(
            [[row_cols[i].get(j, 0) for j in cols_left]
             for i in sorted(row_cols)]))
    return factors


@dataclass(frozen=True)
class AbelianInvariants:
    """Finitely generated abelian group: free rank plus torsion chain."""

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion entries must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion chain must be divisible")

    @property
    def order(self):
        """Group order, or None when the free rank is positive."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n


def invariants_from_factors(ngens: int, factors) -> AbelianInvariants:
    nonzero = [d for d in factors if d]
    return AbelianInvariants(free_rank=ngens - len(nonzero),
                             torsion=tuple(d for d in nonzero if d >= 2))


def abelian_invariants(presentation: Presentation) -> AbelianInvariants:
    """Abelianization of a presented group via SNF of the relator matrix."""
    entries = {}
    for i, r in enumerate(presentation.relators):
        for letter in r:
            j = abs(letter) - 1
            entries[(i, j)] = entries.get((i, j), 0) + (1 if letter > 0 else -1)
    factors = _snf_invariants_sparse(entries)
    return invariants_from_factors(presentation.generator_count, factors)


def count_homs_to_abelian(src: AbelianInvariants,
                          target: AbelianInvariants) -> int:
    """|Hom(src, target)| for a finite abelian target.

    Equals |target|^rank * prod over source torsion d of |target[d]|,
    where |target[d]| multiplies gcd(d, e) over target factors e.
    """
    if target.free_rank:
        raise ValueError("target must be finite")
    total = target.order ** src.free_rank
    for d in src.torsion:
        for e in target.torsion:
            total *= gcd(d, e)
    return total


def enumerate_homs(presentation: Presentation, target: FiniteGroup,
                   budget: int = DEFAULT_HOM_BUDGET):
    """All homomorphisms into a finite group, as element-index tuples.

    Brute force over generator images in lexicographic order of element
    indices; a relator check filters non-homomorphisms.
    """
    from itertools import product

    ngens = presentation.generator_count
    if target.order ** ngens > budget:
        raise BudgetExceeded(target.order ** ngens, "homomorphism search")
    inv = [target.inv_idx(i) for i in range(target.order)]
    out = []
    for images in product(range(target.order), repeat=ngens):
        ok = True
        for r in presentation.relators:
            acc = target.identity_index
            for letter in r:
                g = images[abs(letter) - 1]
                acc = target.mul_idx(acc, g if letter > 0 else inv[g])
            if acc != target.identity_index:
                ok = False
                break
        if ok:
            out.append(images)
    return out
