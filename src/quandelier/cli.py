"""Command-line front end.

Command lines are read from one table, GRAMMAR, which the help is also
built from.  File formats are 1-based, line oriented and diff-able; all
internal indices are 0-based and converted only at parse/print time.
Exit codes: 0 success, 1 semantic failure (validation or check false),
2 budget exceeded or group provably infinite, 3 parse error, which a
command line that GRAMMAR does not read ends in too.  Every failure is
one line on stderr.
"""

import collections
import functools
import math
import os
import sys
from itertools import chain
from types import SimpleNamespace

from . import cohomology as coh, fpgroup, fundamental as fund, quandle as qmod
from .cohomology import Coeff
from .errors import (BudgetExceeded, NotACocycle, NotAHomomorphism,
                     NotAQuandle, ParseError, QuandelierError)

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_BUDGET = 2
EXIT_PARSE = 3

# the largest coefficient group, by spec or by group file, whose k x k
# table is built before anything reads it
MAX_GROUP_ORDER = 64


def integer(text: str) -> int:
    """ASCII digits with an optional leading '-' as an integer, else
    ValueError; int() alone would also read '+1', '1_000', ' 7 ' and
    non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def default_budget() -> int:
    """QUANDELIER_BUDGET as an integer, or fpgroup.DEFAULT_COSET_BUDGET
    when unset; run checks that it is positive, as it does --budget."""
    value = os.environ.get("QUANDELIER_BUDGET")
    if value is None:
        return fpgroup.DEFAULT_COSET_BUDGET
    try:
        return integer(value)
    except ValueError:
        raise ParseError(f"QUANDELIER_BUDGET is not an integer: {value!r}")


# ---------------------------------------------------------------------------
# parsing


def _tokens(text):
    """Nonempty lines as token lists, comments (#) stripped; no field
    takes the '+' or '_' that int() would read in '+3' and '0_3'."""
    if "#" not in text and "+" not in text and "_" not in text:
        return [line for line in map(str.split, text.splitlines()) if line]
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


def _labels(n):
    """The labels '1'..'n' of elements 0..n-1."""
    return list(map(str, range(1, n + 1)))


def _lookup(tokens, index, entry, *args):
    """A row's values, one lookup in index per token; a row holding any
    other token ('007', '-2') is read by entry(token, *args) instead."""
    try:
        return list(map(index.__getitem__, tokens))
    except KeyError:
        return [entry(token, *args) for token in tokens]


def _label_entry(token, what, n=None):
    """A 1-based label as its index, read by int(); with n, in 1..n."""
    v = _int(token, what)
    if n is not None and not 1 <= v <= n:
        raise ParseError(f"{what} {v} outside 1..{n}")
    return v - 1


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
    index = {label: v for v, label in enumerate(_labels(n))}
    table = []
    for r in range(n):
        row = lines[start + 1 + r]
        if len(row) != n:
            raise ParseError(f"row {r + 1} has {len(row)} entries, want {n}")
        table.append(_lookup(row, index, _label_entry, "table entry", n))
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
    next): its factors are then the group's invariant factors, so each
    finite abelian group has exactly one spec.
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


def _exponent_texts(coeff: Coeff):
    """Each element's exponent text 'e1,...,ek', by element index."""
    return [",".join(map(str, label)) for label in coeff.labels]


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
    """CocycleFile -> (cocycle rows, per-component Coeff tuple)."""
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
    index = {text: v for v, text in enumerate(_exponent_texts(coeff))}
    values = []
    for a in range(n):
        row = lines[1 + a]
        if len(row) != n:
            raise ParseError(f"row {a + 1} has {len(row)} entries, want {n}")
        values.append(tuple(_lookup(row, index, _exponent_entry, coeff)))
    for a in range(n):
        if values[a][a] != coeff.identity:
            raise ParseError(f"diagonal entry at {a + 1} is not the identity")
    return tuple(values), coh.graded_coefficients(quandle, coeff)


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
    index = {label: v for v, label in enumerate(_labels(total.n))}
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
            perm = tuple(_lookup(lines[pos], index, _label_entry,
                                 "action entry"))
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
        with open(path, "rb") as handle:
            return handle.read().decode("ascii")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not ASCII at byte {exc.start}")


# ---------------------------------------------------------------------------
# printing


def _write_rows(out, rows):
    """Write each row, a sequence of strings, as a line once it is joined."""
    out.writelines(" ".join(row) + "\n" for row in rows)


def emit_quandle(quandle: qmod.FiniteQuandle, out):
    """The table, each row read across the labelled distinct columns."""
    labels = _labels(quandle.n)
    texts = [tuple(map(labels.__getitem__, c)) for c in quandle.columns]
    _write_rows(out, chain(
        [("quandle", str(quandle.n))],
        zip(*map(texts.__getitem__, quandle.column_id)),
        [("basepoints", *map(labels.__getitem__, quandle.basepoints))]))


def emit_map(mapping, out):
    _write_rows(out, [("map", str(len(mapping))),
                      [str(v + 1) for v in mapping]])


def _coeff_spec(coeff: Coeff) -> str:
    if not coeff.invariants:
        raise ParseError("only abelian coefficients can be emitted")
    return "x".join(f"Z{d}" for d in coeff.invariants)


def emit_extension(ext: coh.Extension, out):
    _write_rows(out, [("extension",)])
    emit_quandle(ext.projection.target, out)
    emit_quandle(ext.total, out)
    emit_map(ext.projection.map, out)
    labels = _labels(ext.total.n)
    _write_rows(out, [("coeff", *map(_coeff_spec, ext.coeffs))])
    for i, perms in enumerate(ext.action):
        _write_rows(out, chain([("action", str(i + 1))],
                               (map(labels.__getitem__, p) for p in perms)))


def emit_cocycle(f, quandle: qmod.FiniteQuandle, coeffs, out):
    specs = {_coeff_spec(c) for c in coeffs}
    if len(specs) != 1:
        raise ParseError("cocycle files need a single coefficient group")
    texts = [_exponent_texts(lam) for lam in coeffs]
    _write_rows(out, chain(
        [("cocycle", str(quandle.n), "over", specs.pop())],
        (map(texts[component].__getitem__, row)
         for component, row in zip(quandle.grading, f))))


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
    if not coeff.abelian:
        raise ParseError("class counting needs an abelian group")
    counts = [c for _, c in coh.h2_with_coefficients(quandle, coeff)]
    if quandle.is_connected():
        print(f"classes={counts[0]}", file=out)
    else:
        for i, c in enumerate(counts):
            print(f"component {i + 1}: classes={c}", file=out)
    return EXIT_OK


def cmd_cover(args, out) -> int:
    quandle = parse_quandle_file(args.quandle)
    if args.universal or args.enumerate:
        pi1 = fund.fundamental_group(quandle, quandle.basepoints[0],
                                     budget=args.budget)
    if args.universal:
        cover = fund.universal_cover(pi1)
        emit_quandle(cover.cover, out)
        emit_map(cover.projection.map, out)
        return EXIT_OK
    if args.enumerate:
        coverings = fund.enumerate_connected_coverings(pi1)
        for j, (_, projection, normal) in enumerate(coverings):
            fibre = projection.source.n // quandle.n
            galois = "true" if normal else "false"
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
        y = hom.section.index(None)
        print(f"covering=false witness=not-surjective y={y + 1}", file=out)
        return EXIT_SEMANTIC
    a, x, y = witness
    print(f"covering=false witness=a={a + 1} x={x + 1} y={y + 1}", file=out)
    return EXIT_SEMANTIC


def cmd_ext(args, out) -> int:
    if args.from_cocycle is not None:
        quandle = parse_quandle_file(args.quandle)
        f, coeffs = parse_cocycle_file(args.from_cocycle, quandle)
        try:
            ext = coh.extension_from_cocycle(quandle, coeffs, f)
        except NotACocycle as exc:
            a, b, c = exc.witness
            print(f"cocycle=false witness=a={a + 1} b={b + 1} c={c + 1}",
                  file=out)
            return EXIT_SEMANTIC
        emit_extension(ext, out)
        return EXIT_OK
    if args.extract:
        ext = parse_extension_bundle(args.quandle)
        f = coh.cocycle_from_extension(ext)
        emit_cocycle(f, ext.projection.target, ext.coeffs, out)
        return EXIT_OK
    # --equiv
    e1 = parse_extension_bundle(args.quandle)
    e2 = parse_extension_bundle(args.equiv)
    if coh.are_equivalent_extensions(e1, e2) is None:
        print("equivalent=false", file=out)
        return EXIT_SEMANTIC
    print("equivalent=true", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispatch


class Option(collections.namedtuple(
        "Option", "flag value help metavar one_of",
        defaults=(None, False))):
    """One option of a subcommand.  value reads its value (integer or
    str), or is None for a switch, which takes none and is stored as
    True.  Of a subcommand's one_of options exactly one must be given:
    a lone one is required, several exclude each other."""

    __slots__ = ()

    @property
    def dest(self) -> str:
        """The attribute the option is stored as, named from its flag."""
        return self.flag[2:].replace("-", "_")


BUDGET = Option("--budget", integer, "enumeration budget override")

# The command grammar, read by _direct_args and help_text alone: each
# subcommand's help text and the options that follow its one input
# file, in the order the help lists them.
GRAMMAR = {
    "validate": ("check the quandle axioms", (BUDGET,)),
    "pi1": ("fundamental group at a basepoint", (
        BUDGET,
        Option("--base", integer,
               "1-based basepoint (default: first component's)"))),
    "h2": ("integral second homology per component", (BUDGET,)),
    "h2c": ("cohomology class count with abelian coefficients", (
        BUDGET,
        Option("--coeff", str,
               "group spec, e.g. Z2 or Z2xZ4, or a group file",
               one_of=True))),
    "cover": ("universal cover, covering census, or covering check", (
        BUDGET,
        Option("--universal", None,
               "emit the universal cover and its projection",
               one_of=True),
        Option("--enumerate", None,
               "list one pointed connected covering per subgroup of pi1",
               one_of=True),
        Option("--check", str, "test whether a map file is a covering",
               "MAPFILE", one_of=True),
        Option("--target", str, "target quandle for --check",
               "QUANDLEFILE"))),
    "ext": ("build, extract or compare extensions", (
        BUDGET,
        Option("--from-cocycle", str, "build the extension of a cocycle",
               "COCYCLEFILE", one_of=True),
        Option("--extract", None,
               "read an extension bundle, print its cocycle",
               one_of=True),
        Option("--equiv", str,
               "compare against another extension bundle", "BUNDLE",
               one_of=True))),
}


def help_text() -> str:
    """The help, built from GRAMMAR: each subcommand's help text, then
    its options, each with the name of its value if it takes one."""
    lines = ["usage: quandelier COMMAND FILE [OPTION]...",
             "Options are spelt in full and given at most once, a value as",
             "the next argument; of a command's options marked *, exactly",
             "one must be given."]
    for name, (text, options) in GRAMMAR.items():
        lines.append(f"\n{name} FILE: {text}")
        for o in options:
            value = f" {o.metavar or o.dest.upper()}" if o.value else ""
            lines.append(f"  {'*' if o.one_of else ' '} "
                         f"{o.flag + value:<28}{o.help}")
    return "\n".join(lines) + "\n"


@functools.cache
def build_parser():
    """What _direct_args reads each subcommand by, built from GRAMMAR
    once per process: its options by flag, its arguments before any is
    read, and the flags of its one_of options."""
    return {name: ({o.flag: o for o in options},
                   {"command": name, "quandle": None,
                    **{o.dest: None for o in options}},
                   tuple(o.flag for o in options if o.one_of))
            for name, (_, options) in GRAMMAR.items()}


def _direct_args(argv) -> SimpleNamespace:
    """The arguments of a command line, read from GRAMMAR: a subcommand,
    then its one input file and its options in any order, each spelt
    out in full and given at most once, a value as the next argument
    (not starting with '--'), and exactly one of its one_of options;
    anything else raises a ParseError that names what is wrong."""
    readers = build_parser()
    if not argv or argv[0] not in readers:
        raise ParseError(f"expected a command ({', '.join(GRAMMAR)}), "
                         f"got {' '.join(argv[:1])!r}")
    name, tokens = argv[0], iter(argv[1:])
    options, defaults, one_of = readers[name]
    values, seen = dict(defaults), set()
    for token in tokens:
        if not token.startswith("-"):
            if values["quandle"] is not None:
                raise ParseError(f"{name} takes one input file: {token!r}")
            values["quandle"] = token
            continue
        option = options.get(token)
        if option is None:
            raise ParseError(f"{name} has no option {token!r}")
        if token in seen:
            raise ParseError(f"{token} is given twice")
        seen.add(token)
        if option.value is None:
            values[option.dest] = True
            continue
        text = next(tokens, "--")
        if text.startswith("--"):
            raise ParseError(f"{token} needs a value")
        try:
            values[option.dest] = option.value(text)
        except ValueError:
            raise ParseError(f"{token} is not an integer: {text!r}")
    if values["quandle"] is None:
        raise ParseError(f"{name} needs an input file")
    if one_of and sum(flag in seen for flag in one_of) != 1:
        raise ParseError(f"{name} needs exactly one of {', '.join(one_of)}")
    return SimpleNamespace(**values)


COMMANDS = {
    "validate": cmd_validate,
    "pi1": cmd_pi1,
    "h2": cmd_h2,
    "h2c": cmd_h2c,
    "cover": cmd_cover,
    "ext": cmd_ext,
}


def run(argv, out=None, err=None) -> int:
    """Run one command line.  One holding -h or --help prints the help
    to out; any other is read by _direct_args, and every input error
    ends in one line on err."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    if "-h" in argv or "--help" in argv:
        out.write(help_text())
        return EXIT_OK
    try:
        args = _direct_args(argv)
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
    except MemoryError:
        print("budget exceeded: out of memory", file=err)
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
