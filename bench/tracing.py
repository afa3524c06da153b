"""Spans around the public functions of each package module.

The tracer replaces module attributes with wrappers for the length of
one traced pass, so every call made through a module -- including
calls from other modules of the package and the command table of the
command line -- opens a span with its name, start, end, parent and job.
A layer's time is its self time: the span's duration minus the time
its child spans cover.  Counts of work are recorded at the same
boundaries.  Nothing here changes what the package computes.
"""

import sys
import time

from quandelier.errors import BudgetExceeded

# (module, attribute) -> span name.  The SNF layer is entered through
# the module's sparse eliminator, which every SNF caller goes through.
SPANS = {
    ("quandle", "validate"): "quandle.validate",
    ("fpgroup", "todd_coxeter"): "fpgroup.tc",
    ("fpgroup", "_snf_invariants_sparse"): "fpgroup.snf",
    ("fpgroup", "smith_normal_form"): "fpgroup.snf_dense",
    ("fpgroup", "adjoint_presentation"): "fpgroup.adjoint_presentation",
    ("fundamental", "pi1_presentation"): "fundamental.pi1_presentation",
    ("fundamental", "build_complex"): "fundamental.build_complex",
    ("fundamental", "adj0_enumeration"): "fundamental.adj0_enumeration",
    ("fundamental", "universal_cover"): "fundamental.universal_cover",
    ("fundamental", "enumerate_connected_coverings"): "fundamental.census",
    ("fundamental", "fundamental_group"): "fundamental.fundamental_group",
    ("permgroup", "subgroups"): "permgroup.subgroups",
    ("cohomology", "h2_integral"): "cohomology.h2_integral",
    ("cohomology", "h2_with_coefficients"): "cohomology.h2_with_coefficients",
    ("cohomology", "extension_from_cocycle"):
        "cohomology.extension_from_cocycle",
    ("cohomology", "is_cocycle"): "cohomology.is_cocycle",
    ("cohomology", "check_extension"): "cohomology.check_extension",
    ("cohomology", "are_equivalent_extensions"):
        "cohomology.are_equivalent_extensions",
}
for _name in ("_read", "_tokens", "build_parser", "parse_quandle_file",
              "parse_quandle_lines", "parse_map_lines", "parse_abelian_spec",
              "parse_group_spec", "parse_cocycle_file",
              "parse_extension_bundle"):
    SPANS[("cli", _name)] = "cli.parse"
for _name in ("emit_quandle", "emit_map", "emit_extension", "emit_cocycle"):
    SPANS[("cli", _name)] = "cli.emit"

# the subcommands, entered through cli.COMMANDS
COMMAND_SPANS = {name: f"cli.{name}" for name in
                 ("validate", "pi1", "h2", "h2c", "cover", "ext")}


def _counts(name, args, result, error):
    """Work counts for one call, by metric name."""
    if name == "quandle.validate":
        return {"quandle.validate_calls": 1,
                "quandle.q3_triples": len(args[0]) ** 3}
    if name == "fpgroup.tc":
        presentation = args[0]
        reached = (result.coset_count if error is None else
                   getattr(error, "reached", 0))
        return {"fpgroup.tc_calls": 1,
                "fpgroup.tc_budget_hits": int(isinstance(error,
                                                         BudgetExceeded)),
                "fpgroup.tc_cosets": reached,
                "fpgroup.tc_relator_letters":
                    sum(len(r) for r in presentation.relators)}
    if name == "fpgroup.snf":
        return {"fpgroup.snf_nnz": sum(1 for v in args[0].values() if v)}
    if name == "fpgroup.snf_dense":
        rows = len(args[0])
        return {"fpgroup.snf_dense_cells":
                rows * (len(args[0][0]) if rows else 0)}
    if name == "fundamental.pi1_presentation" and error is None:
        return {"fundamental.pi1_generators": result.generator_count,
                "fundamental.pi1_relators": len(result.relators)}
    if name == "fundamental.universal_cover" and error is None:
        return {"fundamental.cover_elements": result.cover.n}
    if name == "permgroup.subgroups" and error is None:
        return {"permgroup.subgroup_count": len(result)}
    return {}


class Tracer:
    """Records spans while installed; install() and remove() bracket
    one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, job, counts]
        self.stack = []
        self.job = None
        self.saved = []

    def span(self, name, fn):
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), None,
                      self.stack[-1] if self.stack else None, self.job, {}]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
                record[5] = _counts(name, args, result, error)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        package = {key: mod for key, mod in sys.modules.items()
                   if key == "quandelier" or key.startswith("quandelier.")}
        originals = {}
        for (module, attr), name in SPANS.items():
            fn = getattr(package[f"quandelier.{module}"], attr)
            originals[id(fn)] = (fn, self.span(name, fn))
        # replace every module-level reference, re-exports included
        for mod in package.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self.saved.append((vars(mod), attr, value))
                    vars(mod)[attr] = originals[id(value)][1]
        commands = package["quandelier.cli"].COMMANDS
        for key, fn in list(commands.items()):
            self.saved.append((commands, key, fn))
            commands[key] = self.span(COMMAND_SPANS[key], fn)

    def remove(self):
        for namespace, attr, value in reversed(self.saved):
            namespace[attr] = value
        self.saved = []

    def job_span(self, job_name, fn, *args):
        """Run one job under a root span named 'job'."""
        self.job = job_name
        try:
            return self.span("job", fn)(*args)
        finally:
            self.job = None

    def layer_metrics(self):
        """Self time per span name and summed counts, by metric name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        metrics = {}
        for k, (name, start, end, _, _, counts) in enumerate(self.spans):
            key = f"{name}_s"
            metrics[key] = metrics.get(key, 0.0) + (end - start - child[k])
            if name == "fpgroup.tc" and counts.get("fpgroup.tc_budget_hits"):
                metrics["fpgroup.tc_wasted_s"] = (
                    metrics.get("fpgroup.tc_wasted_s", 0.0) + end - start)
            for counter, value in counts.items():
                metrics[counter] = metrics.get(counter, 0) + value
        return metrics

    def records(self):
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "job": job, "counts": counts}
                for name, start, end, parent, job, counts in self.spans]
