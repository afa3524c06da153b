"""The benchmark's workloads: seeded input files and checked jobs.

Each workload builder writes its inputs into a directory and returns
the jobs to run.  A job is one command line for `quandelier.cli.run`
and a check of its answer.  Every job passes an explicit --budget, so
QUANDELIER_BUDGET in the environment cannot change the work done.

Why each workload and input was chosen is recorded in BENCHMARK.json
and in README.md next to this file.
"""

import os
import random
from dataclasses import dataclass, field

import checks
import corpus
from quandelier import quandle as qmod

# Budget for every corpus-sweep job.  Todd-Coxeter on the 51
# disconnected inputs runs until it reaches this many cosets, so the
# budget sets the cost of the budget-exhausting jobs; acceptance
# criterion 8 uses 20000, and 5000 keeps one pass near seven seconds.
SWEEP_BUDGET = 5000
# The command line's default budget, passed explicitly.
DEFAULT_BUDGET = 1_000_000
INVALID_TABLES = 24
KNOWN_DEFECT_JOBS = 12


@dataclass
class Job:
    name: str
    argv: list
    check: object  # (result, results by job name) -> None, raises Wrong


@dataclass
class Result:
    code: int
    out: str
    err: str
    seconds: float = field(compare=False)
    error: str = None  # "timeout" or the escaped exception, else None
    start: float = field(default=0.0, compare=False)


class Files:
    """Writes numbered input files into one directory."""

    def __init__(self, directory):
        self.directory = directory
        self.count = 0

    def __call__(self, stem, text):
        self.count += 1
        path = os.path.join(self.directory, f"{self.count:04d}-{stem}.txt")
        return corpus.write(path, text)


def sweep_jobs(files, rng, index, name, op, budget):
    """Every subcommand on one input: validate, pi1, h2, h2c, the three
    cover modes and the three ext modes."""
    q = checks.Input(name, op)
    z2 = corpus.Abelian([2])
    flag = ["--budget", str(budget)]
    path = files("quandle", corpus.quandle_text(op))

    def job(sub, argv, check):
        return Job(f"{sub} {name}", argv + flag, check)

    basis = corpus.z2_cocycle_basis(op)
    jobs = [
        job("validate", ["validate", path], checks.check_validate(q)),
        job("pi1", ["pi1", path], checks.check_pi1(q)),
        job("h2", ["h2", path], checks.check_h2(q, f"pi1 {name}")),
        job("h2c", ["h2c", path, "--coeff", "Z2"],
            checks.check_h2c(q, f"h2 {name}",
                             checks.z2_class_count(op, len(basis)))),
        job("cover-universal", ["cover", path, "--universal"],
            checks.check_universal(q, f"pi1 {name}")),
        job("cover-enumerate", ["cover", path, "--enumerate"],
            checks.check_enumerate(q, f"pi1 {name}")),
    ]

    f1 = corpus.random_z2_cocycle(rng, basis, q.n)
    if rng.random() < 0.5:
        f2 = shifted(rng, op, z2, f1)
    else:
        f2 = corpus.random_z2_cocycle(rng, basis, q.n)

    # cover --check on a surjective map: the extension's projection (a
    # covering), the constant map onto the one-element quandle (a
    # homomorphism, a covering only for trivial quandles), or a random
    # permutation (an automorphism or not a homomorphism at all).
    # Non-surjective maps are the known-defects workload.  The kind
    # goes by the input's place in the corpus, so the tables validated
    # have the same sizes for every seed.
    kind = ("extension", "constant", "permutation")[index % 3]
    if kind == "extension":
        src, f, _ = corpus.extension(op, z2, f1)
        tgt = op
    elif kind == "constant":
        src, tgt, f = op, [[0]], [0] * q.n
    else:
        src, tgt, f = op, op, rng.sample(range(q.n), q.n)
    src_path = path if src is op else files("source",
                                            corpus.quandle_text(src))
    tgt_path = path if tgt is op else files("target",
                                            corpus.quandle_text(tgt))
    map_path = files("map", corpus.map_text(f))
    jobs.append(job("cover-check", ["cover", src_path, "--check", map_path,
                                    "--target", tgt_path],
                    checks.check_covering_map(src, tgt, f)))
    jobs += ext_jobs(files, path, name, q, z2, f1, f2, flag)
    return jobs


def shifted(rng, op, lam, f):
    """f plus a random coboundary: another cocycle in f's class."""
    g = [lam.random(rng) for _ in op]
    return corpus.add_cochains(lam, f, corpus.coboundary(op, lam, g))


def ext_jobs(files, path, name, q, lam, f1, f2, flag):
    """ext --from-cocycle on f1, --extract on the bundle of f1, and
    --equiv between the bundles of f1 and f2.  The bundles are written
    here, so each job reads only files the benchmark made."""
    cocycle = files("cocycle", corpus.cocycle_text(lam, f1))
    b1 = files("bundle", corpus.bundle_text(q.op, lam, f1))
    b2 = files("bundle", corpus.bundle_text(q.op, lam, f2))
    return [
        Job(f"ext-from-cocycle {name}",
            ["ext", path, "--from-cocycle", cocycle] + flag,
            checks.check_from_cocycle(q, lam, f1)),
        Job(f"ext-extract {name}", ["ext", b1, "--extract"] + flag,
            checks.check_extract(q, lam, f1)),
        Job(f"ext-equiv {name}", ["ext", b1, "--equiv", b2] + flag,
            checks.check_equiv(q, lam, f1, f2)),
    ]


def corpus_sweep(directory, seed):
    """The 85-quandle test corpus (random part at its fixed seed) with
    every subcommand on every input, plus seeded invalid tables."""
    rng = random.Random(seed)
    files = Files(directory)
    entries = corpus.constructor_corpus() + corpus.random_corpus()
    jobs = []
    for index, (name, op) in enumerate(entries):
        jobs += sweep_jobs(files, rng, index, name, op, SWEEP_BUDGET)
    sources = [(name, op) for name, op in entries if len(op) >= 3]
    for i in range(INVALID_TABLES):
        name, op = sources[i * len(sources) // INVALID_TABLES]
        bad, kind = corpus.invalid_table(rng, op)
        path = files("invalid", corpus.quandle_text(bad))
        jobs.append(Job(f"validate invalid[{i}] {kind} from {name}",
                        ["validate", path, "--budget", str(SWEEP_BUDGET)],
                        checks.check_invalid(bad)))
    return jobs


def cover_build(directory, seed):
    """Large theorem-built tables: universal covers, covering census,
    a 2520-coset pi1 and extensions of 80 and 180 elements."""
    rng = random.Random(seed)
    files = Files(directory)
    flag = ["--budget", str(DEFAULT_BUDGET)]
    s5t = checks.Input("conj(S5,transposition)",
                       corpus.transposition_quandle(5).op)
    s6t = checks.Input("conj(S6,transposition)",
                       corpus.transposition_quandle(6).op)
    s7t = checks.Input("conj(S7,transposition)",
                       corpus.transposition_quandle(7).op)
    c3 = checks.Input("conj(S5,3-cycle)", corpus.three_cycle_quandle_s5().op)
    d45 = checks.Input("dihedral(45)", qmod.dihedral(45).op)
    path = {q.name: files("quandle", corpus.quandle_text(q.op))
            for q in (s5t, s6t, s7t, c3, d45)}
    jobs = [
        Job("cover-universal conj(S6,transposition)",
            ["cover", path[s6t.name], "--universal"] + flag,
            checks.check_universal(s6t, size=360)),
        Job("cover-universal conj(S5,3-cycle)",
            ["cover", path[c3.name], "--universal"] + flag,
            checks.check_universal(c3, size=120)),
        Job("cover-enumerate conj(S5,transposition)",
            ["cover", path[s5t.name], "--enumerate"] + flag,
            checks.check_enumerate(s5t)),
        Job("cover-enumerate conj(S5,3-cycle)",
            ["cover", path[c3.name], "--enumerate"] + flag,
            checks.check_enumerate(c3, "cover-universal conj(S5,3-cycle)")),
        Job("pi1 conj(S7,transposition)", ["pi1", path[s7t.name]] + flag,
            checks.check_pi1(s7t)),
    ]
    # dihedral(45) is simply connected, so every Z4 cocycle on it is a
    # coboundary; the three-cycle quandle has H^2(Z2) = Z2, so its
    # Z2xZ2 cocycles pair two cocycles from the GF(2) cocycle space.
    # The second bundle is always in the first one's class, so --equiv
    # does the full search and its cost does not depend on the seed.
    z4 = corpus.Abelian([4])
    f1 = shifted(rng, d45.op, z4, [[z4.zero] * d45.n] * d45.n)
    jobs += ext_jobs(files, path[d45.name], d45.name, d45, z4, f1,
                     shifted(rng, d45.op, z4, f1), flag)
    v4 = corpus.Abelian([2, 2])
    basis = corpus.z2_cocycle_basis(c3.op)
    first, second = (corpus.random_z2_cocycle(rng, basis, c3.n)
                     for _ in range(2))
    f1 = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(first, second)]
    jobs += ext_jobs(files, path[c3.name], c3.name, c3, v4, f1,
                     shifted(rng, c3.op, v4, f1), flag)
    return jobs


def homology(directory, seed):
    """H2 and H^2 on large connected quandles: sparse and dense Smith
    normal form over the path complex and the pi1 presentation.

    The inputs are named constructions and no job takes seeded data, so
    the seed does not change them: any seeded variation of these inputs
    (a relabelling, say) changes the elimination order and with it the
    cost, which would swamp what the workload measures."""
    files = Files(directory)
    flag = ["--budget", str(DEFAULT_BUDGET)]
    inputs = {n: checks.Input(f"dihedral({n})", qmod.dihedral(n).op)
              for n in (15, 21, 31, 45)}
    c3 = checks.Input("conj(S5,3-cycle)", corpus.three_cycle_quandle_s5().op)
    s7t = checks.Input("conj(S7,transposition)",
                       corpus.transposition_quandle(7).op)
    path = {q.name: files("quandle", corpus.quandle_text(q.op))
            for q in list(inputs.values()) + [c3, s7t]}
    jobs = [Job(f"h2 dihedral({n})", ["h2", path[f"dihedral({n})"]] + flag,
                checks.check_h2(inputs[n], None)) for n in (15, 21)]
    for q in (inputs[31], inputs[45]):
        jobs.append(Job(f"h2c {q.name}", ["h2c", path[q.name], "--coeff",
                                          "Z2"] + flag, checks.check_h2c(q)))
    for q in (c3, s7t):
        classes = checks.z2_class_count(
            q.op, len(corpus.z2_cocycle_basis(q.op)))
        jobs.append(Job(f"h2c {q.name}", ["h2c", path[q.name], "--coeff",
                                          "Z2"] + flag,
                        checks.check_h2c(q, z2_classes=classes)))
    jobs.append(Job("pi1 dihedral(31)", ["pi1", path["dihedral(31)"]] + flag,
                    checks.check_pi1(inputs[31])))
    return jobs


def known_defects(directory, seed):
    """cover --check on constant maps into quandles with two or more
    elements: homomorphisms that are not surjective.  The command line
    lets a TypeError escape on these, so every job fails until that is
    fixed; they are kept apart so that the measured workloads are ones
    on which no operation fails."""
    rng = random.Random(seed)
    files = Files(directory)
    entries = corpus.constructor_corpus()
    targets = [(name, op) for name, op in entries if len(op) >= 2]
    jobs = []
    for i in range(KNOWN_DEFECT_JOBS):
        name, src = rng.choice(entries)
        tgt_name, tgt = rng.choice(targets)
        f = [rng.randrange(len(tgt))] * len(src)
        argv = ["cover", files("source", corpus.quandle_text(src)),
                "--check", files("map", corpus.map_text(f)),
                "--target", files("target", corpus.quandle_text(tgt)),
                "--budget", str(SWEEP_BUDGET)]
        jobs.append(Job(f"cover-check[{i}] {name} -> {tgt_name}", argv,
                        checks.check_covering_map(src, tgt, f)))
    return jobs


WORKLOADS = {
    "corpus-sweep": corpus_sweep,
    "cover-build": cover_build,
    "homology": homology,
    "known-defects": known_defects,
}
