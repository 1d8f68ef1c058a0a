"""Rules on the package source itself."""

import ast
import pathlib
import re
import sys

import dgkernel
from dgkernel import homology as hml


ROOT = pathlib.Path(dgkernel.__file__).parent
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
              ast.SetComp)


def modules():
    for path in sorted(ROOT.glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def test_no_assert_statements_in_package():
    # runtime checks must survive python -O, which strips assert
    found = []
    for path, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert ROOT.joinpath("dg_core.py").exists()
    assert not found, found


def test_no_module_level_mutable_state():
    # caches live on the objects they belong to (the differential cache on
    # a DgAlgebra), never in a module-level container that one job
    # leaves behind for the next; UPPER_CASE names are read-only tables
    found = []
    for path, tree in modules():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if not isinstance(node.value, CONTAINERS):
                continue
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name)
                            and not re.fullmatch(r"[A-Z][A-Z0-9_]*", name.id)
                            and not re.fullmatch(r"__\w+__", name.id)):
                        found.append(f"{path.name}:{node.lineno} {name.id}")
    assert not found, found


def test_fractions_imported_only_in_fields():
    # a Q scalar is an int when integral and a Fraction only when the
    # field made it one; the rest of the package works through the field
    found = []
    for path, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "fractions" in names and path.name != "fields.py":
                found.append(f"{path.name}:{node.lineno}")
    assert ROOT.joinpath("fields.py").exists()
    assert not found, found


def test_package_imports_only_stdlib():
    # the kernel has zero runtime dependencies: every absolute import is
    # of the standard library (relative imports stay inside the package)
    found = []
    for path, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert ROOT.joinpath("cli.py").exists()
    assert not found, found


def test_matrix_storage_stays_in_exact_linear():
    # a matrix is its list of sparse columns; the flattened entries view
    # is for outside readers, and no other module of the package reads it
    found = []
    for path, tree in modules():
        if path.name == "exact_linear.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "entries":
                found.append(f"{path.name}:{node.lineno}")
    assert ROOT.joinpath("exact_linear.py").exists()
    assert not found, found


def test_sparse_kernels_pick_the_field_rule_once():
    # axpy, axpy_at and the engine's back-substitution are the inner loops
    # of every layer: they pick the field's arithmetic once per call and
    # never dispatch F.add / F.mul / F.is_zero per entry
    tree = ast.parse(ROOT.joinpath("exact_linear.py").read_text())
    bodies = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef)}
    found = []
    for name in ("axpy", "axpy_at", "_insert"):
        for node in ast.walk(bodies[name]):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "F"
                    and node.func.attr in ("add", "mul", "is_zero")):
                found.append(f"{name}:{node.lineno} F.{node.func.attr}")
    assert not found, found


def stores_or_drops(node):
    """Whether the if-statement node stores an entry (out[k] = s) in one
    branch and pops one (out.pop(k, None)) in the other: a sum kept
    where it is nonzero and dropped where it is zero."""
    def has(branch, kind):
        for child in branch:
            for sub in ast.walk(child):
                if kind == "store" and isinstance(sub, ast.Assign) and any(
                        isinstance(t, ast.Subscript) for t in sub.targets):
                    return True
                if kind == "pop" and isinstance(sub, ast.Call) and (
                        getattr(sub.func, "attr", None) == "pop"
                        or getattr(sub.func, "id", None) == "pop"):
                    return True
        return False
    return any(has(a, "store") and has(b, "pop")
               for a, b in ((node.body, node.orelse),
                            (node.orelse, node.body)))


def test_the_accumulation_rule_is_written_once():
    # summing into a sparse vector and dropping the entries that become
    # zero is the field's rule, written in exact_linear's accumulations
    # (and the field's own arithmetic): every other layer calls axpy or
    # axpy_at, or writes terms that cannot meet, as the Leibniz rule does
    found = [f"{path.name}:{node.lineno}" for path, tree in modules()
             for node in ast.walk(tree)
             if isinstance(node, ast.If) and stores_or_drops(node)]
    assert found and {f.split(":")[0] for f in found} <= {
        "exact_linear.py", "fields.py"}, found


def calls_by_scope(node, scope=()):
    """(enclosing class and def names, call) for every call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from calls_by_scope(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Call):
            yield scope, child
        yield from calls_by_scope(child, scope)


def callers_of(name):
    """"file:scope" of every call of a function or method called name."""
    found = set()
    for path, tree in modules():
        for scope, call in calls_by_scope(tree):
            func = call.func
            called = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if called == name:
                found.add(f"{path.name}:{'.'.join(scope)}")
    return found


def test_only_assembly_skips_the_matrix_check():
    # every column is checked once, by the matrix that made it: the
    # unchecked constructor serves only matrices assembled from checked
    # columns (a kept block and its new columns, the cone's shifted and
    # merged columns, the stacked action of A0 on the cone, and the
    # kernel columns A0 acts on), and the engine's products and kernels
    # keep the check
    assert callers_of("_from_checked") == {
        "homology.py:BigradedComplex.diff", "homology.py:cone.diff",
        "homology.py:kill_homology.action", "homology.py:_products"}


def test_cones_are_made_only_by_objects_under_construction():
    # a Construction (a model or a resolution) makes its one cone of q in
    # __init__, and every stage and the certificate read that cone: no
    # other code builds a cone of its own
    assert callers_of("cone") == {"homology.py:Construction.__init__"}


def test_slices_are_forgotten_only_by_kill_homology():
    # the one cache rule (after stage n, X grows from degree n and the
    # cone from degree n + 1) is written once, in the stage driver; no
    # slice is dropped to be built again, and the differentials below
    # degree n are released only after their check
    assert not hasattr(hml.BigradedComplex, "forget")
    assert callers_of("forget") == set()
    assert callers_of("grow") == {"homology.py:kill_homology"}
    assert callers_of("release") == {"homology.py:Construction.build"}


def test_only_homology_reads_a_cone():
    # a build certifies itself and keeps only the cone slices a later
    # stage or check reads, so no other module runs a stage or reads the
    # cone after the build
    found = [f"{path.name}:{node.lineno}" for path, tree in modules()
             if path.name != "homology.py" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "cone"]
    assert not found, found
    assert {caller.split(":")[0]
            for caller in callers_of("kill_homology")} == {"homology.py"}


def test_homology_knows_no_target():
    # homology holds complexes, cones, homology, generator selection and
    # the Construction; k is an ordinary target, the RingTarget with no
    # generators, for models and resolutions alike
    tree = ast.parse(ROOT.joinpath("homology.py").read_text())
    imported = set()
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= ({node.module} if node.module else
                         {alias.name for alias in node.names})
        if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef)
                and item.name == "act_matrix" for item in node.body):
            targets.append(node.name)
    assert imported <= {"exact_linear", "errors"}, imported
    assert not targets, targets
    assert not [path.name for path, _ in modules()
                if "ResidueField" in path.read_text()]


def test_one_quotient_ring_implementation():
    # every quotient ring (a base, a model's target, a cyclic module, k)
    # is a TruncatedBase, so only graded_base takes quotients
    assert {caller.split(":")[0] for caller in callers_of("quotient")} == {
        "graded_base.py"}


def test_one_route_to_each_betti_table_and_one_minimality_check():
    # the Betti table of k is read through betti_of_k, which alone tries
    # the lifted table over Q; every resolution is built by betti_numbers;
    # a build checks its own minimality once, after its last stage
    assert callers_of("lifted_betti_table") == {"invariants.py:betti_of_k"}
    assert callers_of("resolve_module") == {"invariants.py:betti_numbers"}
    assert callers_of("non_minimal_witness") == {
        "homology.py:Construction.build"}


def test_label_products_and_differentials_stay_in_the_algebra():
    # a resolution's matrices and the fiber complex's are built from an
    # algebra's blocks (its differential and mul_matrix), so one label at
    # a time is multiplied or differentiated only in dg_core and in the
    # integer check of a lifted resolution
    for name in ("_label_product", "_label_differential"):
        # the file and outermost scope of each call
        callers = {re.match(r"[^:]*:[^.]*", caller)[0]
                   for caller in callers_of(name)}
        assert callers == {"dg_core.py:DgAlgebra",
                           "module_resolution.py:first_non_cycle"}, name


def test_algebras_are_grown_only_by_the_code_that_made_them():
    # adjoin_variable grows an algebra in place, so it is called only on
    # an algebra the caller made itself: a model's own algebra, the copy a
    # Koszul complex extends, the reduction mod p of an algebra, and the
    # algebra of a job file
    assert callers_of("adjoin_variable") == {
        "model_builder.py:Model.adjoin", "model_builder.py:koszul_complex",
        "dg_core.py:DgAlgebra.reduce_mod", "cli.py:build_algebra"}


# Public names read only from outside the package: the flattened storage
# view that the benchmark's tracer counts nonzeros with.
USED_OUTSIDE = {"ExactMatrix.entries"}


def test_no_unused_public_api():
    # every public function, method or class of the package is referenced
    # somewhere in it (as a name, an attribute or an imported name) or is
    # exported by __init__; dunders and _private names are exempt
    defined = []
    referenced = set()
    for path, tree in modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(path.name, f"{node.name}.{item.name}", item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    found = [f"{file}:{qualname}" for file, qualname, name in defined
             if not name.startswith("_") and name not in referenced
             and qualname not in USED_OUTSIDE]
    assert not found, found
