"""Finitely presented groups: adjoint presentations, Tietze moves,
HLT coset enumeration, exact Smith normal form, and abelian invariants.

Words are tuples of signed 1-based generator numbers: letter +k is
generator k-1, letter -k its inverse.  Words are not reduced on
construction; relator scans need the raw letters.
"""

from dataclasses import dataclass
from itertools import chain
from math import gcd, prod
from operator import neg

from .errors import BudgetExceeded

DEFAULT_COSET_BUDGET = 1_000_000

Word = tuple


def inverse_word(word) -> Word:
    return tuple(map(neg, reversed(word)))


@dataclass(frozen=True)
class Presentation:
    generator_count: int
    relators: tuple

    def __post_init__(self):
        def bad(r):
            return 0 in r or max(map(abs, r), default=0) > self.generator_count
        if bad(set(chain.from_iterable(self.relators))):  # all at once
            i = next(i for i, r in enumerate(self.relators) if bad(r))
            raise ValueError(f"relator {i} has a letter out of range")


def _unchecked(cls, **fields):
    """cls(**fields) without its __post_init__ checks, for fields that a
    construction makes valid (relators renumbered, rotated or inverted
    from checked ones, a projection built by a covering theorem)."""
    built = object.__new__(cls)
    vars(built).update(fields)
    return built


def simplify(generator_count: int, relators, killed=frozenset()):
    """simplify_cells on words, cells whose letters step to themselves."""
    n = generator_count
    return simplify_cells(n, {x: ((x, 0),) for x in range(-n, n + 1)},
                          ((w, 0) for w in relators), killed)


def simplify_cells(generator_count: int, step, cells, killed=frozenset()):
    """Tietze moves until nothing changes; returns (Presentation, images).

    Each cell (word, start) is read once as it comes and lifted letter
    by letter: letter x at vertex v reads generator letter e and reaches
    v', (e, v') = step[x][v].  The survivors are read again until a
    reading eliminates nothing; the generators in killed (letters) are
    dead on entry.  A relator of length 1 kills its generator, a relator
    a b in two distinct generators eliminates the later one as the
    other's inverse, and goes, at once: each letter is substituted as it
    is read, and reduced freely and cyclically in the same loop; a later
    reading rewrites only relators holding a generator eliminated since.
    Once no generator survives, no more cells are read.  The survivors
    are returned as last read, renumbered, exact duplicates dropped;
    images[g] is the letter old generator g (letter g + 1) became, or 0.
    """
    count = generator_count
    # letter -> the letter it now reads as, or 0
    sub = list(range(count + 1)) + list(range(-count, 0))
    for g in killed:
        sub[g] = sub[-g] = 0
    alive = count - len(killed)
    readers = {}  # a -> the generators that read as +-a, where not just a
    dead = set()  # the signed letters eliminated so far
    before, relators = None, cells  # alive before the last reading
    while alive != before:
        first, before, kept = before is None, alive, []
        for w in relators:
            if first or not dead.isdisjoint(w):
                out = []
                if first:
                    w, v = w
                    for x in w:
                        e, v = step[x][v]
                        y = sub[e]
                        if y and out and out[-1] == -y:
                            out.pop()
                        elif y:
                            out.append(y)
                else:
                    for y in map(sub.__getitem__, w):
                        if y and out and out[-1] == -y:
                            out.pop()
                        elif y:
                            out.append(y)
                i, j = 0, len(out)
                while j - i > 1 and out[i] == -out[j - 1]:
                    i, j = i + 1, j - 1
                w = tuple(out[i:j])
            if len(w) == 1 or len(w) == 2 and abs(w[0]) != abs(w[1]):
                a, b = sorted(w, key=abs) if len(w) == 2 else (0, w[0])
                into, b = (-a if b > 0 else a), abs(b)
                group = readers.pop(b, [b])
                for g in group:
                    sub[g] = into if sub[g] > 0 else -into
                    sub[-g] = -sub[g]
                readers.setdefault(abs(into), [abs(into)]).extend(group)
                dead.update((b, -b))
                alive -= 1
                if not alive:
                    break
            elif w:
                kept.append(w)
        relators = tuple(dict.fromkeys(kept)) if alive else ()
    survivors = [g for g in range(1, count + 1) if sub[g] == g]
    number = dict(zip([0] + survivors, range(count + 1)))
    final = [0] + [number[v] if v > 0 else -number[-v]
                   for v in sub[1:count + 1]]
    final += [-v for v in reversed(final[1:])]  # letters -count .. -1
    return (Presentation(len(survivors), tuple(
                tuple(map(final.__getitem__, w)) for w in relators)),
            tuple(final[1:count + 1]))


def least_rotation(word) -> Word:
    """The least rotation of the word or of its inverse, its class's."""
    return min(v[i:] + v[:i] for v in (word, inverse_word(word))
               for low in (min(v),) for i in range(len(v)) if v[i] == low)


def rotation_classes(relators):
    """One relator per class of rotations and inversion, shorter first,
    as coset enumeration fares better so; each canonicalised when read."""
    seen = set()
    for w in map(least_rotation, sorted(relators, key=len)):
        if w not in seen:
            seen.add(w)
            yield w


@dataclass(frozen=True)
class AdjointPresentation(Presentation):
    """Adj(Q) on its own generating set S, generators, with the words
    that eliminated the other generators: words[x] is w_x, and tree
    lists the definitions (x*s, x, s) in BFS order."""

    generators: tuple
    words: tuple
    tree: tuple


def adjoint_presentation(quandle, gens) -> AdjointPresentation:
    """Presentation of the adjoint group of a finite quandle on a
    generating set S = gens of Q.  Every lifted relator of Adj(Q)
    becomes |C| cells of pi_1's complex, so FiniteQuandle.adjoint
    passes the smallest set its closure search finds.

    Adj(Q) is presented by one generator e_x per element and the
    relators e_s^-1 e_a e_s e_{a*s}^-1 for a in Q and s in S: as
    rho_{c*d} = rho_d rho_c rho_d^-1 (Q3), the pairs with s in S
    suffice.  Tietze moves eliminate each e_x, x not in S, by a word
    w_x over S, letter k being e_s for s = S[k-1]: a BFS from S, in
    order, along x -> x*s reaches every element, and gives each x*s it
    reaches first w_{x*s} = s^-1 w_x s.  By induction every w_x is
    p^-1 t p, t a letter and p a word of positive letters, so
    s^-1 w_x s is reduced as it stands unless w_x = s.  The relators
    left, s^-1 w_a s w_{a*s}^-1, are reduced by cutting the common
    suffix of s^-1 w_a s and w_{a*s}, and deduplicated; those of the
    definitions and of w_a = s are empty and omitted.
    """
    rho, gens = quandle.rho, tuple(gens)
    words = [None] * quandle.n
    for k, s in enumerate(gens, 1):
        words[s] = (k,)
    tree, queue = [], list(gens)
    for x in queue:  # grows while it is read
        for k, s in enumerate(gens, 1):
            y = rho[s][x]
            if words[y] is None:
                words[y] = (-k,) + words[x] + (k,)
                tree.append((y, x, s))
                queue.append(y)
    relators, seen = [], set()
    for a in range(quandle.n):
        for k, s in enumerate(gens, 1):
            if words[a] == (k,):
                continue
            u, v = (-k,) + words[a] + (k,), words[rho[s][a]]
            i, j = len(u), len(v)
            while i and j and u[i - 1] == v[j - 1]:
                i, j = i - 1, j - 1
            w = u[:i] + inverse_word(v[:j])
            if w and w not in seen:
                seen.add(w)
                relators.append(w)
    return AdjointPresentation(generator_count=len(gens),
                               relators=tuple(relators), generators=gens,
                               words=tuple(words), tree=tuple(tree))


@dataclass(frozen=True)
class CosetTable:
    """Complete collapsed coset table from a terminated enumeration, in
    standard form: coset 0 is the subgroup coset, and the others are
    numbered in BFS order of their representative words over the
    letters 1, -1, 2, -2, ..., so the table depends only on the group,
    the subgroup and the order of the generators.

    action[g] is the permutation of cosets induced by generator g,
    action_inv[g] its inverse (the same tuple for an involution).
    representative_word[c] is the BFS word taking coset 0 to c.
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


def todd_coxeter(presentation: Presentation, subgroup_generators=(),
                 budget: int = DEFAULT_COSET_BUDGET) -> CosetTable:
    """HLT coset enumeration with immediate coincidence processing.

    Enumerates the cosets of the subgroup generated by the given words,
    relators scanned in a fixed order, and returns the table in standard
    form.  Raises BudgetExceeded with the live-coset count if the table
    grows past the budget.

    The table is stored by column: table[x][c] is coset c times column
    x.  A generator whose square (g g or -g -g) is a relator has one
    column for g and g^-1 alike, and that relator is never scanned; any
    other has one for each.  Only these columns are allocated, and they
    grow together by doubling.  Each relator is resolved once to the
    columns its letters read forwards and backwards, and one whose
    forward scan already closes at a coset is passed over without the
    full scan, which would change nothing there.  The BFS that finds
    the representative words numbers the live cosets.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    ngens = presentation.generator_count
    squares = {r for r in presentation.relators
               if len(r) == 2 and r[0] == r[1]}
    involutions = {abs(r[0]) for r in squares}
    column_of, inverse_of = {}, []  # letter -> column, column -> inverse's
    for g in range(1, ngens + 1):
        x, shared = len(inverse_of), g in involutions
        column_of[g], column_of[-g] = x, x + (not shared)
        inverse_of += (x,) if shared else (x + 1, x)
    table = [[None] for _ in inverse_of]
    capacity = 1
    size = 1  # cosets defined, dead ones included
    parent = [0]
    live = 1

    def scans(words):
        out = []
        for w in words:
            cols = tuple(map(column_of.__getitem__, w))
            out.append((tuple(table[x] for x in cols),
                        tuple(table[inverse_of[x]] for x in cols)))
        return out

    relator_scans = scans(r for r in presentation.relators
                          if r not in squares)
    subgroup_scans = scans(subgroup_generators)

    def rep(c):
        r = c
        while parent[r] != r:
            r = parent[r]
        while parent[c] != r:
            parent[c], c = r, parent[c]
        return r

    def define(alpha, column, back):
        nonlocal live, size, capacity
        if live >= budget:
            raise BudgetExceeded(live, "coset enumeration")
        beta = size
        if beta == capacity:
            for each in table:
                each.extend([None] * capacity)
            capacity *= 2
        size += 1
        parent.append(beta)
        live += 1
        column[alpha] = beta
        back[beta] = alpha

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

    pairs = [(table[x], table[y]) for x, y in enumerate(inverse_of)]

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

    def scan_and_fill(alpha, forward, backward):
        f, i = alpha, 0
        b, j = alpha, len(forward) - 1
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
            define(f, forward[i], backward[i])

    for forward, backward in subgroup_scans:
        scan_and_fill(0, forward, backward)
    alpha = 0
    while alpha < size:
        if parent[alpha] != alpha:
            alpha += 1
            continue
        for forward, backward in relator_scans:
            f = alpha
            try:
                for column in forward:
                    f = column[f]
            except TypeError:  # a list indexed by None: a gap
                pass
            else:
                if f == alpha:
                    continue
            scan_and_fill(alpha, forward, backward)
            if parent[alpha] != alpha:
                break
        if parent[alpha] == alpha:
            for column, back in pairs:
                if column[alpha] is None:
                    define(alpha, column, back)
        alpha += 1

    # standard form: the live cosets in BFS order over 1, -1, 2, -2, ...,
    # each new one reached by the word of its BFS parent and one letter
    letters = [(letter, table[column_of[letter]]) for g in range(1, ngens + 1)
               for letter in ((g,) if g in involutions else (g, -g))]
    order, reps, number = [0], [()], [0] + [None] * (size - 1)
    for c, word in zip(order, reps):  # both grow while they are read
        for letter, column in letters:
            d = rep(column[c])
            if number[d] is None:
                number[d] = len(order)
                order.append(d)
                reps.append(word + (letter,))
    if len(order) < live:
        raise AssertionError("coset table is not transitive")
    for c in range(size):  # the dead ones, as their live ones
        if number[c] is None:
            number[c] = number[rep(c)]
    columns = [tuple(map(number.__getitem__, map(column.__getitem__, order)))
               for column in table]
    return CosetTable(
        generator_count=ngens, coset_count=live,
        action=tuple(columns[column_of[g]] for g in range(1, ngens + 1)),
        action_inv=tuple(columns[column_of[-g]] for g in range(1, ngens + 1)),
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
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion entries must be >= 2")
        if any(b % a for a, b in zip(self.torsion, self.torsion[1:])):
            raise ValueError("torsion chain must be divisible")

    @property
    def order(self):
        """Group order, or None when the free rank is positive."""
        return None if self.free_rank else prod(self.torsion)


def abelian_invariants(presentation: Presentation) -> AbelianInvariants:
    """Abelianization of a presented group via SNF of the relator matrix.

    A relator's row counts its letters, so its rotations share the row
    and its inverse negates it: one row is kept per letter multiset, up
    to sign, and zero rows go (70 rows for the 910 relators of pi_1 of
    the S7 transposition quandle)."""
    rows = {}
    for r in dict.fromkeys(tuple(sorted(r)) for r in presentation.relators):
        row = {}
        for letter in r:
            j = abs(letter) - 1
            row[j] = row.get(j, 0) + (1 if letter > 0 else -1)
        row = tuple(sorted(item for item in row.items() if item[1]))
        rows[min(row, tuple((j, -v) for j, v in row))] = None
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in row}
    nonzero = [d for d in _snf_invariants_sparse(entries) if d]
    return AbelianInvariants(
        free_rank=presentation.generator_count - len(nonzero),
        torsion=tuple(d for d in nonzero if d >= 2))
