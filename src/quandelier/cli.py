"""Command-line front end.

File formats are 1-based, line oriented and diff-able; all internal
indices are 0-based and converted only at parse/print time.  Exit
codes: 0 success, 1 semantic failure (validation or check false),
2 budget exceeded or group provably infinite, 3 parse error.
"""

import argparse
import contextlib
import functools
import math
import os
import sys

from . import cohomology as coh, fundamental as fund, permgroup, quandle as qmod
from .cohomology import Coeff, Cocycle2
from .errors import (BudgetExceeded, NotAHomomorphism, NotAQuandle,
                     ParseError, QuandelierError)

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_BUDGET = 2
EXIT_PARSE = 3

# the largest coefficient group, by spec or by group file, whose k x k
# table is built before anything reads it
MAX_GROUP_ORDER = 64


def default_budget() -> int:
    """QUANDELIER_BUDGET as an integer, or 1_000_000 when unset; run
    checks that it is positive, as it does --budget."""
    value = os.environ.get("QUANDELIER_BUDGET")
    if value is None:
        return 1_000_000
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"QUANDELIER_BUDGET is not an integer: {value!r}")


# ---------------------------------------------------------------------------
# parsing


def _tokens(text):
    """Nonempty lines as token lists, comments (#) stripped; no field
    takes the '+' or '_' that int() would read in '+3' and '0_3'."""
    out = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if "+" in line or "_" in line:
            bad = next(t for t in line.split() if "+" in t or "_" in t)
            raise ParseError(f"line {number}: no field takes {bad!r}")
        if line:
            out.append(line.split())
    return out


def _int(token, what="integer"):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected {what}, got {token!r}")


def _parse_table_block(lines, start):
    """Raw 'quandle <n>' block: (table, basepoints or None, next index)."""
    if start >= len(lines) or lines[start][0] != "quandle":
        raise ParseError("expected a 'quandle <n>' header")
    if len(lines[start]) != 2:
        raise ParseError("quandle header must be 'quandle <n>'")
    n = _int(lines[start][1], "size")
    if n < 1:
        raise ParseError("quandle size must be positive")
    if start + 1 + n > len(lines):
        raise ParseError(f"expected {n} table rows")
    table = []
    for r in range(n):
        row = lines[start + 1 + r]
        if len(row) != n:
            raise ParseError(f"row {r + 1} has {len(row)} entries, want {n}")
        entries = []
        for tok in row:
            v = _int(tok, "table entry")
            if not 1 <= v <= n:
                raise ParseError(f"table entry {v} outside 1..{n}")
            entries.append(v - 1)
        table.append(entries)
    pos = start + 1 + n
    basepoints = None
    if pos < len(lines) and lines[pos][0] == "basepoints":
        basepoints = tuple(_int(t, "basepoint") - 1 for t in lines[pos][1:])
        if any(not 0 <= q < n for q in basepoints):
            raise ParseError(f"basepoint outside 1..{n}")
        pos += 1
    return table, basepoints, pos


def parse_quandle_lines(lines, start=0):
    """Parse and validate a quandle block starting at lines[start].

    Returns (FiniteQuandle, next line index).  Axiom failures propagate
    as NotAQuandle, not ParseError.
    """
    table, basepoints, pos = _parse_table_block(lines, start)
    return qmod.validate(table, basepoints=basepoints), pos


def parse_quandle_file(path) -> qmod.FiniteQuandle:
    lines = _tokens(_read(path))
    quandle, pos = parse_quandle_lines(lines, 0)
    if pos != len(lines):
        raise ParseError("trailing content after the quandle block")
    return quandle


def parse_map_lines(lines, start, source_size):
    if start >= len(lines) or lines[start][0] != "map":
        raise ParseError("expected a 'map <n>' header")
    if len(lines[start]) != 2:
        raise ParseError("map header must be 'map <n>'")
    n = _int(lines[start][1], "size")
    if n != source_size:
        raise ParseError(f"map declares size {n}, source has {source_size}")
    if start + 1 >= len(lines):
        raise ParseError("map values missing")
    row = lines[start + 1]
    if len(row) != n:
        raise ParseError(f"map line has {len(row)} entries, want {n}")
    return tuple(_int(t, "map entry") - 1 for t in row), start + 2


def parse_abelian_spec(spec) -> Coeff:
    """'Z<d1>x...xZ<dk>' -> the corresponding finite abelian group.

    Each factor is ASCII digits and at least 2, and their product is
    at most MAX_GROUP_ORDER, checked before the group is built.
    """
    factors = []
    for part in spec.split("x"):
        if not part.startswith("Z"):
            raise ParseError(f"bad group spec {spec!r}")
        digits = part[1:]
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"expected group order, got {digits!r}")
        d = _int(digits, "group order")
        if d < 2:
            raise ParseError("group spec factors must be >= 2")
        factors.append(d)
    if math.prod(factors) > MAX_GROUP_ORDER:
        raise ParseError(
            f"group specs are limited to {MAX_GROUP_ORDER} elements")
    return Coeff.from_invariants(factors)


def parse_group_spec(spec) -> Coeff:
    """Abelian spec string, or a path to a 'group <n>' table file.

    A spec string must be a divisibility chain (each factor divides the
    next), as class counting reads its factors as invariant factors.
    """
    if spec.startswith("Z") and not os.path.exists(spec):
        coeff = parse_abelian_spec(spec)
        factors = coeff.invariants
        if any(b % a for a, b in zip(factors, factors[1:])):
            raise ParseError(f"group spec {spec!r} is not a divisibility "
                             f"chain: each factor must divide the next")
        return coeff
    lines = _tokens(_read(spec))
    if not lines or lines[0][0] != "group" or len(lines[0]) != 2:
        raise ParseError("expected a 'group <n>' header")
    n = _int(lines[0][1], "size")
    if n > MAX_GROUP_ORDER:
        raise ParseError(
            f"group tables are limited to {MAX_GROUP_ORDER} elements")
    if len(lines) != n + 2:
        raise ParseError(f"expected {n} rows plus an identity line")
    table = []
    for r in range(n):
        row = lines[1 + r]
        if len(row) != n:
            raise ParseError(f"row {r + 1} has {len(row)} entries, want {n}")
        table.append([_int(t, "table entry") - 1 for t in row])
    if lines[n + 1][0] != "identity" or len(lines[n + 1]) != 2:
        raise ParseError("expected an 'identity <k>' line")
    identity = _int(lines[n + 1][1], "identity") - 1
    if not 0 <= identity < n:
        raise ParseError(f"identity outside 1..{n}")
    try:
        return Coeff.from_table(table, identity)
    except ValueError as exc:
        raise ParseError(str(exc))


def _exponent_entry(token, coeff: Coeff) -> int:
    """Exponent tuple 'e1,...,ek' -> element index of an abelian Coeff."""
    if not coeff.invariants:
        raise ParseError("cocycle entries need an abelian group spec")
    parts = token.split(",")
    if len(parts) != len(coeff.invariants):
        raise ParseError(
            f"entry {token!r} has {len(parts)} exponents, "
            f"want {len(coeff.invariants)}")
    label = tuple(_int(p, "exponent") % d
                  for p, d in zip(parts, coeff.invariants))
    return coeff.labels.index(label)


def parse_cocycle_file(path, quandle: qmod.FiniteQuandle):
    """CocycleFile -> (Cocycle2, per-component Coeff tuple)."""
    lines = _tokens(_read(path))
    if not lines or lines[0][0] != "cocycle":
        raise ParseError("expected a 'cocycle <n> over <spec>' header")
    head = lines[0]
    if len(head) != 4 or head[2] != "over":
        raise ParseError("cocycle header must be 'cocycle <n> over <spec>'")
    n = _int(head[1], "size")
    if n != quandle.n:
        raise ParseError(f"cocycle declares size {n}, quandle has {quandle.n}")
    coeff = parse_abelian_spec(head[3])
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} cocycle rows")
    values = []
    for a in range(n):
        row = lines[1 + a]
        if len(row) != n:
            raise ParseError(f"row {a + 1} has {len(row)} entries, want {n}")
        values.append(tuple(_exponent_entry(t, coeff) for t in row))
    for a in range(n):
        if values[a][a] != coeff.identity:
            raise ParseError(f"diagonal entry at {a + 1} is not the identity")
    return Cocycle2(tuple(values)), coh.graded_coefficients(quandle, coeff)


def parse_extension_bundle(path) -> coh.Extension:
    """Bundle: base quandle, total quandle, projection, coeffs, actions."""
    lines = _tokens(_read(path))
    if not lines or lines[0] != ["extension"]:
        raise ParseError("expected an 'extension' header")
    base, pos = parse_quandle_lines(lines, 1)
    # the total's grading is pulled back from the base, so it can be
    # coarser than its components; rebuild it from the projection
    total_table, total_basepoints, pos = _parse_table_block(lines, pos)
    mapping, pos = parse_map_lines(lines, pos, len(total_table))
    if any(not 0 <= v < base.n for v in mapping):
        raise ParseError("projection entry outside the base")
    grading = tuple(base.grading[v] for v in mapping)
    total = qmod.validate(total_table, grading=grading,
                          basepoints=total_basepoints)
    if pos >= len(lines) or lines[pos][0] != "coeff":
        raise ParseError("expected a 'coeff <spec>...' line")
    specs = lines[pos][1:]
    if len(specs) == 1:
        coeffs = coh.graded_coefficients(base, parse_abelian_spec(specs[0]))
    elif len(specs) == base.component_count:
        coeffs = tuple(parse_abelian_spec(s) for s in specs)
    else:
        raise ParseError("need one coeff spec, or one per base component")
    pos += 1
    action = []
    for i, lam in enumerate(coeffs):
        if pos >= len(lines) or lines[pos] != ["action", str(i + 1)]:
            raise ParseError(f"expected an 'action {i + 1}' header")
        pos += 1
        perms = []
        for _ in range(lam.order):
            if pos >= len(lines) or len(lines[pos]) != total.n:
                raise ParseError(
                    f"action {i + 1} needs {lam.order} lines of {total.n}")
            perm = tuple(_int(t, "action entry") - 1 for t in lines[pos])
            if sorted(perm) != list(range(total.n)):
                raise ParseError(f"action {i + 1} line is not a permutation")
            perms.append(perm)
            pos += 1
        action.append(tuple(perms))
    if pos != len(lines):
        raise ParseError("trailing content after the extension bundle")
    projection = qmod.QuandleHom(total, base, mapping)
    ext = coh.Extension(total=total, projection=projection,
                        coeffs=coeffs, action=tuple(action))
    ok, reason = coh.check_extension(ext)
    if not ok:
        raise ParseError(f"not an extension: {reason}")
    return ext


def _read(path) -> str:
    try:
        with open(path, "r", encoding="ascii") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not ASCII at byte {exc.start}")


# ---------------------------------------------------------------------------
# printing


def emit_quandle(quandle: qmod.FiniteQuandle, out):
    labels = [str(v + 1) for v in range(quandle.n)]
    print(f"quandle {quandle.n}", file=out)
    for row in quandle.op:
        print(" ".join(map(labels.__getitem__, row)), file=out)
    print("basepoints",
          " ".join(str(q + 1) for q in quandle.basepoints), file=out)


def emit_map(mapping, out):
    print(f"map {len(mapping)}", file=out)
    print(" ".join(str(v + 1) for v in mapping), file=out)


def _coeff_spec(coeff: Coeff) -> str:
    if not coeff.invariants:
        raise ParseError("only abelian coefficients can be emitted")
    return "x".join(f"Z{d}" for d in coeff.invariants)


def emit_extension(ext: coh.Extension, out):
    print("extension", file=out)
    emit_quandle(ext.projection.target, out)
    emit_quandle(ext.total, out)
    emit_map(ext.projection.map, out)
    print("coeff", " ".join(_coeff_spec(c) for c in ext.coeffs), file=out)
    labels = [str(v + 1) for v in range(ext.total.n)]
    for i, perms in enumerate(ext.action):
        print(f"action {i + 1}", file=out)
        for perm in perms:
            print(" ".join(map(labels.__getitem__, perm)), file=out)


def emit_cocycle(f: Cocycle2, quandle: qmod.FiniteQuandle, coeffs, out):
    specs = {_coeff_spec(c) for c in coeffs}
    if len(specs) != 1:
        raise ParseError("cocycle files need a single coefficient group")
    print(f"cocycle {quandle.n} over {specs.pop()}", file=out)
    for a in range(quandle.n):
        lam = coeffs[quandle.grading[a]]
        print(" ".join(",".join(str(e) for e in lam.labels[v])
                       for v in f.values[a]), file=out)


def _invariants_text(inv) -> str:
    torsion = " ".join(str(d) for d in inv.torsion) if inv.torsion else "-"
    return f"rank {inv.free_rank} torsion {torsion}"


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args, out) -> int:
    try:
        quandle = parse_quandle_file(args.quandle)
    except NotAQuandle as exc:
        witness = " ".join(f"{name}={v + 1}" for name, v in
                           zip("abc", exc.witness))
        print(f"{exc.axiom} violated at {witness}", file=out)
        return EXIT_SEMANTIC
    connected = "true" if quandle.is_connected() else "false"
    print(f"ok n={quandle.n} components={quandle.component_count} "
          f"connected={connected}", file=out)
    return EXIT_OK


def cmd_pi1(args, out) -> int:
    quandle = parse_quandle_file(args.quandle)
    q = quandle.basepoints[0]
    if args.base is not None:
        if not 1 <= args.base <= quandle.n:
            raise ParseError(f"basepoint {args.base} outside 1..{quandle.n}")
        q = args.base - 1
    fg = fund.fundamental_group(quandle, q, budget=args.budget)
    order, code = fg.order, EXIT_OK
    if order is None:
        order, code = "unknown(budget)", EXIT_BUDGET
    print(f"pi1 order={order} "
          f"ab={_invariants_text(fg.abelian_invariants())}", file=out)
    return code


def cmd_h2(args, out) -> int:
    quandle = parse_quandle_file(args.quandle)
    for i, inv in enumerate(coh.h2_integral(quandle)):
        print(f"component {i + 1}: {_invariants_text(inv)}", file=out)
    return EXIT_OK


def cmd_h2c(args, out) -> int:
    quandle = parse_quandle_file(args.quandle)
    coeff = parse_group_spec(args.coeff)
    if not coeff.invariants:
        if not coeff.abelian:
            raise ParseError("class counting needs an abelian group")
        factors = _table_group_invariants(coeff)
        coeff = Coeff.from_invariants(factors)
    counts = [c for _, c in coh.h2_with_coefficients(quandle, coeff)]
    if quandle.is_connected():
        print(f"classes={counts[0]}", file=out)
    else:
        for i, c in enumerate(counts):
            print(f"component {i + 1}: classes={c}", file=out)
    return EXIT_OK


def _table_group_invariants(coeff: Coeff):
    """Invariant factors of an abelian table group, via its relators."""
    from . import fpgroup
    k = coeff.order
    relators = []
    for a in range(k):
        for b in range(k):
            c = coeff.table[a][b]
            relators.append((a + 1, b + 1, -(c + 1)))
    # kill the identity generator explicitly
    relators.append((coeff.identity + 1,))
    pres = fpgroup.Presentation(generator_count=k, relators=tuple(relators))
    inv = fpgroup.abelian_invariants(pres)
    if inv.free_rank:
        raise AssertionError("finite group produced free rank")
    return inv.torsion


def cmd_cover(args, out) -> int:
    quandle = parse_quandle_file(args.quandle)
    if args.universal:
        cover = fund.universal_cover(quandle, budget=args.budget)
        emit_quandle(cover.cover, out)
        emit_map(cover.projection.map, out)
        return EXIT_OK
    if args.enumerate:
        if not quandle.is_connected():
            raise QuandelierError("covering census needs a connected base")
        q = quandle.basepoints[0]
        coverings = fund.enumerate_connected_coverings(quandle, q,
                                                       budget=args.budget)
        # the last subgroup is the whole of pi_1, the deck group
        deck = coverings[-1][0]
        for j, (sub, projection) in enumerate(coverings):
            fibre = len(projection.fibre(q))
            galois = "true" if _is_normal(sub, deck) else "false"
            print(f"covering {j + 1}: fibre={fibre} galois={galois}",
                  file=out)
        return EXIT_OK
    # --check
    if args.target is None:
        raise ParseError("--check needs --target <quandlefile>")
    target = parse_quandle_file(args.target)
    lines = _tokens(_read(args.check))
    mapping, pos = parse_map_lines(lines, 0, quandle.n)
    if pos != len(lines):
        raise ParseError("trailing content after the map block")
    if any(not 0 <= v < target.n for v in mapping):
        raise ParseError("map entry outside the target")
    try:
        hom = qmod.QuandleHom(quandle, target, mapping)
    except NotAHomomorphism as exc:
        a, b = exc.witness
        print(f"covering=false witness=not-a-homomorphism a={a + 1} "
              f"b={b + 1}", file=out)
        return EXIT_SEMANTIC
    ok, witness = qmod.is_covering(hom)
    if ok:
        print("covering=true", file=out)
        return EXIT_OK
    if witness is None:
        y = min(set(range(target.n)) - set(mapping))
        print(f"covering=false witness=not-surjective y={y + 1}", file=out)
        return EXIT_SEMANTIC
    a, x, y = witness
    print(f"covering=false witness=a={a + 1} x={x + 1} y={y + 1}", file=out)
    return EXIT_SEMANTIC


def _is_normal(sub, group) -> bool:
    members = set(sub.elements)
    for g in group.elements:
        gi = permgroup.inverse(g)
        for k in sub.elements:
            if permgroup.mul(permgroup.mul(gi, k), g) not in members:
                return False
    return True


def cmd_ext(args, out) -> int:
    if args.from_cocycle is not None:
        quandle = parse_quandle_file(args.quandle)
        f, coeffs = parse_cocycle_file(args.from_cocycle, quandle)
        ok, witness = coh.is_cocycle(f, quandle, coeffs)
        if not ok:
            a, b, c = witness
            print(f"cocycle=false witness=a={a + 1} b={b + 1} c={c + 1}",
                  file=out)
            return EXIT_SEMANTIC
        ext = coh.extension_from_cocycle(quandle, coeffs, f)
        emit_extension(ext, out)
        return EXIT_OK
    if args.extract:
        ext = parse_extension_bundle(args.quandle)
        f = coh.cocycle_from_extension(ext)
        emit_cocycle(f, ext.projection.target, ext.coeffs, out)
        return EXIT_OK
    if args.equiv is not None:
        e1 = parse_extension_bundle(args.quandle)
        e2 = parse_extension_bundle(args.equiv)
        mapping = coh.are_equivalent_extensions(e1, e2)
        if mapping is None:
            print("equivalent=false", file=out)
            return EXIT_SEMANTIC
        print("equivalent=true", file=out)
        return EXIT_OK
    raise ParseError("ext needs --from-cocycle, --extract or --equiv")


# ---------------------------------------------------------------------------
# dispatch


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="quandelier",
        description="Finite quandles: validation, fundamental groups, "
                    "homology, coverings and extensions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("quandle", help="input file")
        p.add_argument("--budget", type=int, default=None,
                       help="enumeration budget override")
        return p

    add("validate", "check the quandle axioms")

    p = add("pi1", "fundamental group at a basepoint")
    p.add_argument("--base", type=int, default=None,
                   help="1-based basepoint (default: first component's)")

    add("h2", "integral second homology per component")

    p = add("h2c", "cohomology class count with abelian coefficients")
    p.add_argument("--coeff", required=True,
                   help="group spec, e.g. Z2 or Z2xZ4, or a group file")

    p = add("cover", "universal cover, covering census, or covering check")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--universal", action="store_true",
                       help="emit the universal cover and its projection")
    group.add_argument("--enumerate", action="store_true",
                       help="list connected coverings up to isomorphism")
    group.add_argument("--check", metavar="MAPFILE",
                       help="test whether a map file is a covering")
    p.add_argument("--target", metavar="QUANDLEFILE",
                   help="target quandle for --check")

    p = add("ext", "build, extract or compare extensions")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--from-cocycle", metavar="COCYCLEFILE",
                       help="build the extension of a cocycle")
    group.add_argument("--extract", action="store_true",
                       help="read an extension bundle, print its cocycle")
    group.add_argument("--equiv", metavar="BUNDLE",
                       help="compare against another extension bundle")
    return parser


COMMANDS = {
    "validate": cmd_validate,
    "pi1": cmd_pi1,
    "h2": cmd_h2,
    "h2c": cmd_h2c,
    "cover": cmd_cover,
    "ext": cmd_ext,
}


def run(argv, out=None, err=None) -> int:
    """Run one command line; argparse's help and errors go to out/err."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        if args.budget is None:
            args.budget = default_budget()
        if args.budget < 1:
            raise ParseError(f"budget must be positive, got {args.budget}")
        return COMMANDS[args.command](args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=err)
        return EXIT_BUDGET
    except NotAQuandle as exc:
        print(f"invalid quandle: {exc}", file=err)
        return EXIT_SEMANTIC
    except NotAHomomorphism as exc:
        print(f"invalid map: {exc}", file=err)
        return EXIT_SEMANTIC
    except (QuandelierError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_SEMANTIC


def main() -> None:
    sys.exit(run(sys.argv[1:]))
