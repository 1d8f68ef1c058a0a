"""Outside-in span tracer for the dgkernel layers.

``Tracer.install()`` replaces the public functions and methods of each
layer module (and ``__init__`` of its classes) with wrappers, and rebinds
every name that other layers or the package imported directly.  Nothing
under ``src/`` changes.  A timed call records a span ``[name, parent,
start, end]`` in memory; ``dump()`` writes the spans, call counts and
exact counters of one job as JSON.

Functions called 10^5 times or more in one job (``COUNT_ONLY``) are
counted, not timed, to keep the tracing overhead low; a ``resolve-golod``
job makes about 10^6 basis lookups.  Their time is part of the self time
of the span that called them.
"""

import importlib
import inspect
import json
import time
import weakref

LAYERS = ("cli", "invariants", "model_builder", "module_resolution",
          "homology", "dg_core", "graded_base", "exact_linear")

# Over 10^5 calls per job on at least one benchmark workload.
COUNT_ONLY = frozenset({
    "dg_core.DgAlgebra.basis_of_bidegree",
    "dg_core.DgElement.__init__",
    "dg_core.Monomial.__init__",
    "dg_core.Monomial.key",
})

# Entry points of Gaussian elimination; each takes the matrix first and
# none calls another, so every eliminated matrix is counted once.
ELIMINATION = frozenset({
    "exact_linear.rank_and_pivots", "exact_linear.kernel_basis",
    "exact_linear.solve", "exact_linear.solve_many",
})

# Per-layer metrics that must repeat exactly across traced runs of a job.
EXACT_COUNTERS = ("exact_linear.nnz_in", "exact_linear.cells_in",
                  "dg_core.adjoin_variable.calls", "dg_core.basis_hit_ratio",
                  "homology.generator_yield")

# Self-time metrics of single functions: metric prefix -> traced name.
FUNCTION_SELF_S = {
    "exact_linear.rank_and_pivots": "exact_linear.rank_and_pivots",
    "exact_linear.kernel_basis": "exact_linear.kernel_basis",
    "exact_linear.solve_many": "exact_linear.solve_many",
    "dg_core.diff_matrix": "dg_core.DgAlgebra.diff_matrix",
    "dg_core.act_matrix": "dg_core.DgAlgebra.act_matrix",
    "homology.minimal_generators": "homology.minimal_generators",
    "module_resolution.SemifreeResolution.basis":
        "module_resolution.SemifreeResolution.basis",
    "module_resolution.SemifreeResolution.act_matrix":
        "module_resolution.SemifreeResolution.act_matrix",
    "module_resolution.SemifreeResolution.diff_matrix":
        "module_resolution.SemifreeResolution.diff_matrix",
    "graded_base.TruncatedBase.__init__": "graded_base.TruncatedBase.__init__",
}

MIN_GENS = "homology.minimal_generators"
PICK = "exact_linear.pick_new_generators"
BASIS = "dg_core.DgAlgebra.basis_of_bidegree"


class Tracer:
    """Spans and counters of one job process.  ``clock`` gives the span
    times; the job process passes one that leaves out its speed probe."""

    def __init__(self, job_id, clock=time.perf_counter):
        self.job_id = job_id
        self.clock = clock
        self.names = []          # name table; spans refer to it by index
        self.calls = []          # call count per name index
        self.spans = []          # [name index, parent span, start, end]
        self.stack = []          # open span indices
        self.counters = {"exact_linear.nnz_in": 0,
                         "exact_linear.cells_in": 0,
                         "homology.generators_returned": 0,
                         "homology.kernel_columns_offered": 0,
                         "dg_core.basis_hits": 0}
        self._basis_seen = {}    # id(algebra) -> {(i, j): returned list}
        self._wrappers = {}      # original function -> wrapper

    # --- installation ---------------------------------------------------------

    def install(self):
        import dgkernel
        modules = [importlib.import_module("dgkernel." + layer)
                   for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    setattr(mod, attr, self._wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{attr}")
        # names bound by `from .x import f` still point at the originals
        for mod in modules + [dgkernel]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(mod, attr, self._wrappers[obj])

    def _wrap_class(self, cls, prefix):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                wrapped = type(raw)(self._wrap(fn, f"{prefix}.{attr}"))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, f"{prefix}.{attr}")
            else:
                continue
            setattr(cls, attr, wrapped)

    def _wrap(self, fn, name):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        calls, spans, stack = self.calls, self.spans, self.stack
        clock = self.clock

        if name == BASIS:
            seen = self._basis_seen
            counters = self.counters

            def wrapper(alg, i, j):
                calls[idx] += 1
                result = fn(alg, i, j)
                per_alg = seen.get(id(alg))
                if per_alg is None:
                    per_alg = seen[id(alg)] = {}
                    # drop the entry before the id can be reused
                    weakref.finalize(alg, seen.pop, id(alg), None)
                if per_alg.get((i, j)) is result:
                    counters["dg_core.basis_hits"] += 1
                else:
                    per_alg[(i, j)] = result
                return result
        elif name in COUNT_ONLY:
            def wrapper(*args, **kwargs):
                calls[idx] += 1
                return fn(*args, **kwargs)
        else:
            before = self._before_hook(name)
            after = self._after_hook(name)

            def wrapper(*args, **kwargs):
                calls[idx] += 1
                if before is not None:
                    before(args, kwargs)
                span = [idx, stack[-1] if stack else -1, clock(), 0.0]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[3] = clock()
                    stack.pop()
                if after is not None:
                    after(result)
                return result

        wrapper.__wrapped__ = fn
        self._wrappers[fn] = wrapper
        return wrapper

    def _before_hook(self, name):
        counters = self.counters
        if name in ELIMINATION:
            def count_matrix(args, kwargs):
                M = args[0] if args else kwargs["M"]
                counters["exact_linear.nnz_in"] += len(M.entries)
                counters["exact_linear.cells_in"] += M.rows * M.cols
            return count_matrix
        if name == PICK:
            names, spans, stack = self.names, self.spans, self.stack

            def count_offered(args, kwargs):
                if stack and names[spans[stack[-1]][0]] == MIN_GENS:
                    cand = args[3] if len(args) > 3 else kwargs["cand_cols"]
                    counters["homology.kernel_columns_offered"] += len(cand)
            return count_offered
        return None

    def _after_hook(self, name):
        if name == MIN_GENS:
            counters = self.counters

            def count_returned(result):
                counters["homology.generators_returned"] += len(result)
            return count_returned
        return None

    # --- output ---------------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job_id": self.job_id, "names": self.names,
                       "calls": self.calls, "spans": self.spans,
                       "counters": self.counters}, fh)


def is_time(name):
    """Whether a metric of ``summarize`` is a time in seconds."""
    return name.endswith("_s")


def summarize(trace):
    """Per-layer metrics of one job from a dumped trace.

    A span's self time is its duration minus that of its child spans.
    ``cli.certify_s`` is the time in ``homology.homology`` spans with no
    ``build_model`` or ``resolve_module`` span above them: the CLI's
    quasi-isomorphism certificate."""
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for idx, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    drivers = {names.index(n) for n in ("model_builder.build_model",
                                        "module_resolution.resolve_module")
               if n in names}
    homology = names.index("homology.homology") \
        if "homology.homology" in names else -1
    under_driver = [False] * len(spans)
    self_by_name = {}
    certify = 0.0
    for k, (idx, parent, start, end) in enumerate(spans):
        under = parent >= 0 and (under_driver[parent]
                                 or spans[parent][0] in drivers)
        under_driver[k] = under
        if idx == homology and not under:
            certify += end - start
        self_by_name[idx] = self_by_name.get(idx, 0.0) \
            + (end - start) - child[k]

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for idx, name in enumerate(names):
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += self_by_name.get(idx, 0.0)
        out[f"{layer}.calls"] += trace["calls"][idx]

    def self_s(name):
        return self_by_name.get(names.index(name), 0.0) \
            if name in names else 0.0

    def calls(name):
        return trace["calls"][names.index(name)] if name in names else 0

    for metric, name in FUNCTION_SELF_S.items():
        out[metric + ".self_s"] = self_s(name)
    c = trace["counters"]
    basis_calls = calls(BASIS)
    offered = c["homology.kernel_columns_offered"]
    out.update({
        "exact_linear.nnz_in": c["exact_linear.nnz_in"],
        "exact_linear.cells_in": c["exact_linear.cells_in"],
        "dg_core.basis_of_bidegree.calls": basis_calls,
        "dg_core.basis_hit_ratio": (c["dg_core.basis_hits"] / basis_calls
                                    if basis_calls else 0.0),
        "dg_core.adjoin_variable.calls":
            calls("dg_core.DgAlgebra.adjoin_variable"),
        "homology.generator_yield": (c["homology.generators_returned"]
                                     / offered if offered else 0.0),
        "cli.certify_s": certify,
    })
    return out
