"""Output checks for the benchmark's jobs.

A check accepts any correct answer, not one exact text.  Values the
paper and acceptance criteria 1-3 fix are compared exactly; everything
else is checked through relations between subcommands on the same input
(h2 against the abelianisation printed by pi1, class counts against
|Hom(H2, Z2)|, cover sizes against n * |pi1|) or against the algebra in
`corpus`, and every reported witness is checked to be a real one.

Each check takes the job's result and the results of the other jobs of
the same pass, by job name, and raises Wrong when the answer is wrong.
"""

import re
from math import gcd

import corpus


class Wrong(Exception):
    pass


def require(condition, message):
    if not condition:
        raise Wrong(message)


def expect_exit(result, code):
    require(result.code == code,
            f"exit code {result.code}, want {code}; stderr {result.err!r:.200}")


def lines_of(text):
    return [line.split() for line in text.splitlines() if line.strip()]


INVARIANTS = r"rank (\d+) torsion ([-\d ]+)"


def invariants(rank, torsion):
    torsion = torsion.strip()
    return int(rank), (() if torsion == "-" else
                       tuple(int(d) for d in torsion.split()))


def hom_to_z2_count(inv):
    rank, torsion = inv
    count = 2 ** rank
    for d in torsion:
        count *= gcd(d, 2)
    return count


def torsion_order(inv):
    order = 1
    for d in inv[1]:
        order *= d
    return order


def known_answers(name):
    """Values fixed by the paper and acceptance criteria 1-3, if any.

    Odd dihedral quandles are simply connected with H2 = 0; the
    transposition quandles of S4 and S5 have pi1 of order 2 and 6,
    H2 = Z2, and 2 and 6 connected coverings; Q_{m,n} has H2 = Z + Z_gcd
    on both components.  The transposition quandle of S7 has 2520
    degree-zero cosets, so pi1 has order 2520 / 21.
    """
    m = re.fullmatch(r"dihedral\((\d+)\)", name)
    if m and int(m[1]) % 2:
        return dict(order=1, h2=[(0, ())], coverings=1)
    if name == "conj(S4,transposition)":
        return dict(order=2, h2=[(0, (2,))], coverings=2)
    if name == "conj(S5,transposition)":
        return dict(order=6, h2=[(0, (2,))], coverings=6)
    if name == "conj(S7,transposition)":
        return dict(order=120)
    m = re.fullmatch(r"q_mn\((\d+),(\d+)\)", name)
    if m:
        ell = gcd(int(m[1]), int(m[2]))
        return dict(h2=[(1, (ell,) if ell > 1 else ())] * 2)
    return {}


class Input:
    """One quandle input: its table, components and known answers."""

    def __init__(self, name, op):
        self.name = name
        self.op = [list(row) for row in op]
        self.n = len(op)
        self.parts = corpus.components(op)
        self.connected = len(self.parts) == 1
        self.known = known_answers(name)


def peer(results, name):
    """The result of another job, if it ran and did not crash."""
    result = results.get(name)
    if result is None or result.error is not None:
        return None
    return result


# ---------------------------------------------------------------------------
# validate


def check_validate(q):
    def check(result, results):
        expect_exit(result, 0)
        connected = "true" if q.connected else "false"
        want = f"ok n={q.n} components={len(q.parts)} connected={connected}"
        require(result.out.strip() == want, f"validate printed {result.out!r}")
    return check


def check_invalid(op):
    """An invalid table: exit 1 and a witness that really breaks the
    axiom it names."""
    n = len(op)

    def check(result, results):
        expect_exit(result, 1)
        m = re.fullmatch(r"(Q[123]) violated at ((?:[abc]=\d+ ?)+)",
                         result.out.strip())
        require(m, f"validate printed {result.out!r}")
        w = [int(v) - 1 for v in re.findall(r"=(\d+)", m[2])]
        require(all(0 <= v < n for v in w), f"witness {w} out of range")
        if m[1] == "Q1":
            require(len(w) == 1 and op[w[0]][w[0]] != w[0],
                    f"Q1 witness {w} is idempotent")
        elif m[1] == "Q2":
            column = [op[a][w[0]] for a in range(n)] if len(w) == 1 else []
            require(column and sorted(column) != list(range(n)),
                    f"Q2 witness {w} is a permutation column")
        else:
            require(len(w) == 3 and corpus.q3_violation(op, *w),
                    f"Q3 witness {w} satisfies Q3")
    return check


# ---------------------------------------------------------------------------
# pi1, h2, h2c


PI1 = re.compile(r"pi1 order=(\d+|unknown\(budget\)) ab=" + INVARIANTS)


def parse_pi1(result):
    m = PI1.fullmatch(result.out.strip())
    require(m, f"pi1 printed {result.out!r}")
    order = None if m[1].startswith("unknown") else int(m[1])
    return order, invariants(m[2], m[3])


def check_pi1(q):
    def check(result, results):
        if not q.connected:
            # pi1 of a disconnected quandle is infinite: budget exhausted
            expect_exit(result, 2)
            order, ab = parse_pi1(result)
            require(order is None, "finite order for a disconnected quandle")
        else:
            expect_exit(result, 0)
            order, ab = parse_pi1(result)
            require(order is not None and order >= 1, "no order printed")
            require(ab[0] == 0 and order % torsion_order(ab) == 0,
                    f"abelianisation {ab} is not a quotient of order {order}")
            if "order" in q.known:
                require(order == q.known["order"],
                        f"order {order}, want {q.known['order']}")
        if "h2" in q.known:
            require(ab == q.known["h2"][0], f"pi1 ab {ab}, want "
                    f"{q.known['h2'][0]}")
    return check


H2_LINE = re.compile(r"component (\d+): " + INVARIANTS)


def parse_h2(result):
    out = []
    for k, line in enumerate(result.out.strip().splitlines()):
        m = H2_LINE.fullmatch(line)
        require(m and int(m[1]) == k + 1, f"h2 printed {line!r}")
        out.append(invariants(m[2], m[3]))
    return out


def check_h2(q, pi1_job):
    """h2 per component; component 1 equals the abelianised pi1."""
    def check(result, results):
        expect_exit(result, 0)
        h2 = parse_h2(result)
        require(len(h2) == len(q.parts),
                f"{len(h2)} components, want {len(q.parts)}")
        if "h2" in q.known:
            require(h2 == q.known["h2"], f"h2 {h2}, want {q.known['h2']}")
        other = peer(results, pi1_job)
        if other is not None:
            _, ab = parse_pi1(other)
            require(h2[0] == ab, f"h2 {h2[0]} differs from pi1 ab {ab}")
    return check


def z2_class_count(op, basis_size):
    """|H^2(Q; Z2)| = 2^(dim Z^2 - dim B^2), where the coboundary map
    has the functions constant on components as its kernel."""
    return 2 ** (basis_size - len(op) + len(corpus.components(op)))


def check_h2c(q, h2_job=None, z2_classes=None):
    """h2c --coeff Z2: one count per component, each |Hom(H2, Z2)| from
    the h2 job, with the product equal to the GF(2) count."""
    def check(result, results):
        expect_exit(result, 0)
        text = result.out.strip().splitlines()
        if q.connected:
            m = re.fullmatch(r"classes=(\d+)", text[0]) if text else None
            require(m and len(text) == 1, f"h2c printed {result.out!r}")
            counts = [int(m[1])]
        else:
            counts = []
            for k, line in enumerate(text):
                m = re.fullmatch(r"component (\d+): classes=(\d+)", line)
                require(m and int(m[1]) == k + 1, f"h2c printed {line!r}")
                counts.append(int(m[2]))
            require(len(counts) == len(q.parts), "wrong component count")
        want = None
        if "h2" in q.known:
            want = [hom_to_z2_count(inv) for inv in q.known["h2"]]
        other = peer(results, h2_job) if h2_job else None
        if other is not None:
            want = [hom_to_z2_count(inv) for inv in parse_h2(other)]
        if want is not None:
            require(counts == want, f"classes {counts}, want {want}")
        if z2_classes is not None:
            product = 1
            for c in counts:
                product *= c
            require(product == z2_classes,
                    f"classes {counts}, GF(2) count {z2_classes}")
    return check


# ---------------------------------------------------------------------------
# cover


def parse_table(lines, pos):
    require(pos < len(lines) and lines[pos][:1] == ["quandle"]
            and len(lines[pos]) == 2, "expected a 'quandle <n>' header")
    n = int(lines[pos][1])
    rows = lines[pos + 1:pos + 1 + n]
    require(len(rows) == n and all(len(r) == n for r in rows),
            f"bad {n}x{n} table")
    table = [[int(v) - 1 for v in r] for r in rows]
    require(all(0 <= v < n for r in table for v in r), "entry out of range")
    pos += 1 + n
    if pos < len(lines) and lines[pos][:1] == ["basepoints"]:
        pos += 1
    return table, pos


def parse_map(lines, pos, n, m):
    require(pos + 1 < len(lines) and lines[pos] == ["map", str(n)]
            and len(lines[pos + 1]) == n, "bad map block")
    f = [int(v) - 1 for v in lines[pos + 1]]
    require(all(0 <= v < m for v in f), "map entry out of range")
    return f, pos + 2


def universal_order(q, results, pi1_job):
    if "order" in q.known:
        return q.known["order"]
    other = peer(results, pi1_job) if pi1_job else None
    return parse_pi1(other)[0] if other is not None else None


def check_universal(q, pi1_job=None, size=None):
    """A connected universal cover: n * |pi1| elements, connected, and a
    covering projection onto the input."""
    def check(result, results):
        if not q.connected:
            expect_exit(result, 2)
            require(result.out == "" and "budget" in result.err,
                    f"disconnected cover printed {result.out!r:.80}")
            return
        expect_exit(result, 0)
        lines = lines_of(result.out)
        cover, pos = parse_table(lines, 0)
        f, pos = parse_map(lines, pos, len(cover), q.n)
        require(pos == len(lines), "trailing output")
        order = universal_order(q, results, pi1_job)
        want = size if size is not None else (
            q.n * order if order is not None else None)
        if want is not None:
            require(len(cover) == want, f"cover has {len(cover)} elements, "
                    f"want {want}")
        require(all(cover[a][a] == a for a in range(len(cover))),
                "cover breaks Q1")
        require(len(corpus.components(cover)) == 1, "cover is disconnected")
        require(corpus.is_covering(cover, q.op, f),
                "projection is not a covering")
    return check


ENUM_LINE = re.compile(r"covering (\d+): fibre=(\d+) galois=(true|false)")


def check_enumerate(q, order_from=None):
    """Connected coverings, one per subgroup of pi1 by increasing order:
    the first has fibre |pi1|, the last fibre 1, all fibres divide |pi1|.

    order_from names the job that fixes |pi1|: a pi1 job, or a universal
    cover job whose size is n * |pi1|."""
    def check(result, results):
        if not q.connected:
            expect_exit(result, 1)
            require("connected" in result.err, f"stderr {result.err!r}")
            return
        expect_exit(result, 0)
        fibres = []
        for k, line in enumerate(result.out.strip().splitlines()):
            m = ENUM_LINE.fullmatch(line)
            require(m and int(m[1]) == k + 1, f"enumerate printed {line!r}")
            fibres.append((int(m[2]), m[3] == "true"))
        require(fibres and fibres[-1] == (1, True), "last covering is not "
                "the identity")
        require(fibres[0][1], "the universal covering is not Galois")
        order = q.known.get("order")
        other = peer(results, order_from) if order_from else None
        if order is None and other is not None:
            if order_from.startswith("pi1"):
                order = parse_pi1(other)[0]
            else:
                order = int(other.out.split(None, 2)[1]) // q.n
        if order is not None:
            require(fibres[0][0] == order, f"first fibre {fibres[0][0]}, "
                    f"want |pi1| = {order}")
            require(all(order % fib == 0 for fib, _ in fibres),
                    "fibre does not divide |pi1|")
            if order == 1:
                require(len(fibres) == 1, "trivial pi1 with several covers")
        if "coverings" in q.known:
            require(len(fibres) == q.known["coverings"],
                    f"{len(fibres)} coverings, want {q.known['coverings']}")
    return check


def check_covering_map(src, tgt, f):
    """cover --check: the verdict our own algebra gives, with a witness
    that really breaks the property it names."""
    def check(result, results):
        out = result.out.strip()
        if corpus.is_covering(src, tgt, f):
            expect_exit(result, 0)
            require(out == "covering=true", f"check printed {out!r}")
            return
        expect_exit(result, 1)
        require(out.startswith("covering=false"), f"check printed {out!r}")
        if corpus.hom_violation(src, tgt, f) is not None:
            m = re.fullmatch(r"covering=false witness=not-a-homomorphism "
                             r"a=(\d+) b=(\d+)", out)
            require(m, f"check printed {out!r} for a non-homomorphism")
            a, b = int(m[1]) - 1, int(m[2]) - 1
            require(0 <= a < len(src) and 0 <= b < len(src)
                    and f[src[a][b]] != tgt[f[a]][f[b]],
                    f"({a + 1}, {b + 1}) is not a homomorphism witness")
        elif len(set(f)) == len(tgt):
            m = re.fullmatch(r"covering=false witness=a=(\d+) x=(\d+) "
                             r"y=(\d+)", out)
            require(m, f"check printed {out!r} for a non-covering")
            a, x, y = (int(v) - 1 for v in m.groups())
            require(all(0 <= v < len(src) for v in (a, x, y))
                    and f[x] == f[y] and src[a][x] != src[a][y],
                    f"({a + 1}, {x + 1}, {y + 1}) is not a covering witness")
    return check


# ---------------------------------------------------------------------------
# ext


def parse_cocycle(text, n, lam):
    lines = lines_of(text)
    require(lines and lines[0] == ["cocycle", str(n), "over", lam.spec]
            and len(lines) == n + 1, "bad cocycle header")
    f = []
    for row in lines[1:]:
        entries = [v.split(",") for v in row]
        require(len(row) == n and all(len(e) == len(lam.factors)
                                      for e in entries), "bad cocycle row")
        f.append([tuple(int(x) % d for x, d in zip(e, lam.factors))
                  for e in entries])
    return f


def bundle_cocycle(text, q, lam):
    """Read an extension bundle and the cocycle of its section through
    the least element of each fibre."""
    lines = lines_of(text)
    require(lines[:1] == [["extension"]], "missing 'extension' header")
    base, pos = parse_table(lines, 1)
    require(base == q.op, "bundle base differs from the input")
    total, pos = parse_table(lines, pos)
    n_total = len(total)
    require(n_total == q.n * lam.order,
            f"total has {n_total} elements, want {q.n * lam.order}")
    p, pos = parse_map(lines, pos, n_total, q.n)
    require(lines[pos] in (["coeff", lam.spec],
                           ["coeff"] + [lam.spec] * len(q.parts)),
            f"coeff line {lines[pos]}")
    pos += 1
    actions = []
    for i in range(len(q.parts)):
        require(lines[pos] == ["action", str(i + 1)], "bad action header")
        perms = [[int(v) - 1 for v in row]
                 for row in lines[pos + 1:pos + 1 + lam.order]]
        require(len(perms) == lam.order and all(
            sorted(perm) == list(range(n_total)) for perm in perms),
            "bad action block")
        actions.append(perms)
        pos += 1 + lam.order
    require(pos == len(lines), "trailing output")
    require(corpus.is_covering(total, q.op, p), "projection is not a "
            "covering")
    section = [None] * q.n
    for x in range(n_total):
        if section[p[x]] is None:
            section[p[x]] = x
    part_of = {a: i for i, part in enumerate(q.parts) for a in part}
    f = []
    for a in range(q.n):
        perms = actions[part_of[a]]
        row = []
        for b in range(q.n):
            product = total[section[a]][section[b]]
            target = section[q.op[a][b]]
            hits = [t for t in range(lam.order) if perms[t][target] == product]
            require(len(hits) == 1, "action is not free and transitive")
            row.append(lam.elements[hits[0]])
        f.append(row)
    return f


def check_from_cocycle(q, lam, f):
    def check(result, results):
        expect_exit(result, 0)
        back = bundle_cocycle(result.out, q, lam)
        require(corpus.cohomologous(q.op, lam, back, f),
                "extension does not carry the input's class")
    return check


def check_extract(q, lam, f):
    def check(result, results):
        expect_exit(result, 0)
        back = parse_cocycle(result.out, q.n, lam)
        require(corpus.cohomologous(q.op, lam, back, f),
                "extracted cocycle is not in the bundle's class")
    return check


def check_equiv(q, lam, f1, f2):
    same = corpus.cohomologous(q.op, lam, f1, f2)

    def check(result, results):
        expect_exit(result, 0 if same else 1)
        want = "equivalent=true" if same else "equivalent=false"
        require(result.out.strip() == want, f"equiv printed {result.out!r}")
    return check
