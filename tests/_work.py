"""Exact work of one job: axpy terms per engine entry point, opcodes
per function, or traced memory (not collected by pytest).

    python tests/_work.py SRC JOB
    python tests/_work.py SRC JOB --opcodes
    python tests/_work.py SRC JOB --memory

imports dgkernel from the directory SRC (e.g. `src` of a checkout), runs
the job file JOB through `cli.main` in this process and prints where its
axpy work went: the number of terms every `exact_linear.axpy` or
`axpy_at` call adds in, summed.  A call made by the engine (code in
`exact_linear`) is charged to the innermost entry point running:
`rank`, `kernel_basis`, `pick_new_generators`, `quotient` or
`ExactMatrix.matmul`.  A call made by another module is charged to that
module (the block fills of `dg_core`, the resolution's blocks, the d o
d check of `homology`, the parser of `cli`), also when an entry point
reads a lazy column of it.  Each entry point's line also gives how many
times it was called (`kernel_basis: 3474 in 53 calls`), so a degree
that takes the previous degree's kernel or picks instead of calling the
engine shows as fewer calls.  Then come the engine's total and the
total over all calls, and the last lines give, for
`SemifreeResolution.diff_matrix` and `act_matrix`, how many calls built
their columns and how many returned a matrix an earlier call returned
(`diff_matrix: 36 built, 138 kept`: a slice whose inputs repeat the
degree below returns that degree's matrix), then the job's exit code.

Every module's binding of axpy and axpy_at is wrapped: `cli` and
`dg_core` import them by name and `module_resolution` reads them from
`exact_linear`, so each module's work is counted where it is done.
The Leibniz rule writes each term of d(m) once and calls neither, so
`dg_core`'s count is that of its block fills and of its elementwise
products and differentials.  The counts are exact and repeat from run
to run, so two checkouts compare on one job:

    python tests/_work.py old/src job.txt
    python tests/_work.py src job.txt

With --opcodes it counts instead the bytecode instructions executed in
dgkernel's frames (`sys.settrace` with `f_trace_opcodes`), per function,
comprehensions and generators under their own qualified names: one line
per function, most first, then one subtotal per module (`module dg_core:
N`, most first), the total, the built and kept counts and the job's
exit code: the split of the work across the layers of the stack.  Time
spent in the standard library and in C code is not counted, so this
measures the interpreter work of dgkernel itself.  The counts repeat
exactly from run to run, also under another PYTHONHASHSEED, where wall
time on a shared host spreads by tens of percent.  Tracing makes the
job some 70 times slower.  As work done in C is not counted, a change
can lower the count and still run slower: `tests/_replay.py` times the
job on both checkouts in fresh processes.

With --memory it traces the job's allocations with tracemalloc, started
after dgkernel is imported, and prints the traced peak in bytes; then
the live set at the end of the job's largest build (the
`homology.Construction.build` that returned with the most memory live,
while the model or resolution it built is still held), per module
(`module module_resolution: N B in K blocks`, most first, with code
outside dgkernel as `other`) and per allocating line for the TOP_LINES
largest; then the bytes still live when the job has returned, and the
job's exit code.  A live set is read after a garbage collection.  These
figures count Python's own allocations, not the arenas the allocator
keeps around them, so they repeat within a few hundred bytes where a
process's peak RSS does not; the built and kept counts are left out
here, as counting them holds every matrix.  Tracing makes the job some
2-4 times slower.
"""

import contextlib
import gc
import importlib
import io
import os
import sys
import tracemalloc

ACCUMULATIONS = ("axpy", "axpy_at")
ENTRY_POINTS = ("rank", "kernel_basis", "pick_new_generators", "quotient",
                "matmul")
MODULES = ("cli", "dg_core", "graded_base", "homology", "invariants",
           "model_builder", "module_resolution")
TOP_LINES = 12


def count_work(la, modules):
    """Wrap the accumulations ACCUMULATIONS in la and in every module of
    modules that binds them, and the engine's entry points in la;
    returns the live work counts and the live call counts of the entry
    points."""
    work = dict.fromkeys(ENTRY_POINTS, 0)
    calls = dict.fromkeys(ENTRY_POINTS, 0)
    running = [None]

    def counted(accumulate):
        def wrapped(F, out, c, terms, *at):
            caller = sys._getframe(1).f_globals["__name__"]
            key = (running[-1] if caller == la.__name__
                   else caller.rsplit(".", 1)[-1])
            work[key] = work.get(key, 0) + len(terms)
            return accumulate(F, out, c, terms, *at)
        return wrapped

    def entered(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            running.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                running.pop()
        return wrapped

    for name in ACCUMULATIONS:
        accumulate = getattr(la, name)
        wrapped = counted(accumulate)
        for mod in (la, *modules):
            if getattr(mod, name, None) is accumulate:
                setattr(mod, name, wrapped)
    for name in ENTRY_POINTS[:-1]:
        setattr(la, name, entered(name, getattr(la, name)))
    la.ExactMatrix.matmul = entered("matmul", la.ExactMatrix.matmul)
    return work, calls


def count_kept(cls, names):
    """Wrap the methods names of cls; returns the live counts, per name,
    of the calls that built a matrix and of those that returned a
    matrix an earlier call returned (kept).  Every returned matrix is
    held, so that no id is reused."""
    counts = {name: {"built": 0, "kept": 0} for name in names}
    returned = {}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            M = fn(*args, **kwargs)
            counts[name]["kept" if returned.get(id(M)) is M else "built"] += 1
            returned[id(M)] = M
            return M
        return wrapped

    for name in names:
        setattr(cls, name, counted(name, getattr(cls, name)))
    return counts


def print_kept(kept):
    for name, n in kept.items():
        print(f"{name}: {n['built']} built, {n['kept']} kept")


def count_opcodes(package_dir):
    """Install a tracer counting the opcodes executed in every frame of
    code under package_dir, per (module, qualname); returns the live
    counts.  sys.settrace(None) removes it."""
    counts = {}
    names = {}

    def local(frame, event, arg):
        if event == "opcode":
            code = frame.f_code
            name = names.get(code)
            if name is None:
                # co_qualname is new in Python 3.11
                name = names[code] = (frame.f_globals["__name__"],
                                      getattr(code, "co_qualname",
                                              code.co_name))
            counts[name] = counts.get(name, 0) + 1
        return local

    def start(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package_dir):
            return None
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    return counts


def live_at_largest_build(cls, package_dir):
    """Wrap cls.build so that each build, as it returns, records the
    traced peak so far, collects garbage, and if more memory is then
    traced than at any return before, records the live set by module
    and by line; the peak is then reset, so the snapshot's own objects,
    freed by then, count in no peak.  Returns the live record: the
    peaks, and (traced bytes, modules, lines) of the largest build."""
    record = {"peaks": [], "largest": None}
    build = cls.build

    def module_of(filename):
        if filename.startswith(package_dir):
            return os.path.splitext(filename[len(package_dir):])[0]
        return "other"

    def wrapped(self, *args, **kwargs):
        built = build(self, *args, **kwargs)
        record["peaks"].append(tracemalloc.get_traced_memory()[1])
        gc.collect()
        current = tracemalloc.get_traced_memory()[0]
        largest = record["largest"]
        if largest is None or current > largest[0]:
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(False, tracemalloc.__file__),
                 tracemalloc.Filter(False, __file__)])
            modules = {}
            for stat in snapshot.statistics("filename"):
                name = module_of(stat.traceback[0].filename)
                size, count = modules.get(name, (0, 0))
                modules[name] = (size + stat.size, count + stat.count)
            lines = [(stat.traceback[0], stat.size, stat.count)
                     for stat in snapshot.statistics("lineno")[:TOP_LINES]]
            del snapshot
            record["largest"] = (current, modules, lines)
        tracemalloc.reset_peak()
        return built
    cls.build = wrapped
    return record


def print_memory(record, code, after):
    print(f"peak: {max(record['peaks'] + [after[1]])} B")
    if record["largest"] is None:
        print("live at the end of the largest build: no build")
    else:
        current, modules, lines = record["largest"]
        print(f"live at the end of the largest build: {current} B")
        for name, (size, count) in sorted(modules.items(),
                                          key=lambda kv: (-kv[1][0], kv[0])):
            print(f"module {name}: {size} B in {count} blocks")
        for frame, size, count in lines:
            print(f"line {os.path.basename(frame.filename)}:{frame.lineno}: "
                  f"{size} B in {count} blocks")
    print(f"live after the job: {after[0]} B")
    print(f"exit: {code}")


def main(argv):
    mode = argv[3:]
    if len(argv) not in (3, 4) or mode not in ([], ["--opcodes"],
                                               ["--memory"]):
        print("usage: python tests/_work.py SRC JOB [--opcodes | --memory]",
              file=sys.stderr)
        return 1
    sys.path.insert(0, os.path.abspath(argv[1]))
    from dgkernel import cli
    from dgkernel import exact_linear as la
    from dgkernel import homology
    from dgkernel.module_resolution import SemifreeResolution

    if mode == ["--memory"]:
        record = live_at_largest_build(
            homology.Construction, os.path.dirname(la.__file__) + os.sep)
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([argv[2]])
            peak = tracemalloc.get_traced_memory()[1]
            gc.collect()
            after = (tracemalloc.get_traced_memory()[0], peak)
        finally:
            tracemalloc.stop()
        print_memory(record, code, after)
        return 0
    opcodes = mode == ["--opcodes"]
    kept = count_kept(SemifreeResolution, ("diff_matrix", "act_matrix"))
    if opcodes:
        counts = count_opcodes(os.path.dirname(la.__file__) + os.sep)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([argv[2]])
        finally:
            sys.settrace(None)
        modules = {}
        for (module, _), n in counts.items():
            module = module.rsplit(".", 1)[-1]
            modules[module] = modules.get(module, 0) + n
        for (module, name), n in sorted(counts.items(),
                                        key=lambda kv: (-kv[1], kv[0])):
            print(f"{module}.{name}: {n}")
        for module, n in sorted(modules.items(),
                                key=lambda kv: (-kv[1], kv[0])):
            print(f"module {module}: {n}")
        print(f"total: {sum(counts.values())}")
        print_kept(kept)
        print(f"exit: {code}")
        return 0
    work, calls = count_work(
        la, [importlib.import_module("dgkernel." + name) for name in MODULES])
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([argv[2]])
    for name, units in work.items():
        if name in calls:
            print(f"{name}: {units} in {calls[name]} calls")
        else:
            print(f"{name}: {units}")
    engine = sum(work[name] for name in ENTRY_POINTS)
    print(f"engine: {engine}")
    print(f"total: {sum(work.values())}")
    print_kept(kept)
    print(f"exit: {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
