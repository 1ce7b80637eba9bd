import ast
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mirrorquintic"


def test_invariants_raise_package_exceptions():
    # an assert vanishes under python -O, and AssertionError is not a
    # MirrorQuinticError: invariants raise errors.InvariantViolated
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _references(tree, names):
    # (enclosing class/def names, line) of each use of one of the names
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            name = (
                child.id if isinstance(child, ast.Name)
                else child.attr if isinstance(child, ast.Attribute)
                else child.name if isinstance(child, ast.alias)
                else None
            )
            if name in names:
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(tree, ())
    return found


def test_no_module_imports_a_name_it_never_uses():
    # a deleted helper leaves no import behind: every name a module imports
    # is read somewhere in it (annotations count; __future__ does not)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        found.append(f"{path.name}:{node.lineno} {bound}")
    assert found == []


def test_no_module_imports_a_private_name():
    # a leading underscore keeps a name inside its module: no module
    # imports one from another module of the package
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "mirrorquintic"
            ):
                found += [
                    f"{path.name}:{node.lineno} {a.name}"
                    for a in node.names
                    if a.name.startswith("_") and not a.name.startswith("__")
                ]
    assert found == []


def test_no_dead_private_names():
    # a deleted caller leaves no helper behind: every private module-level
    # function, class or constant is read somewhere in the package
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [
                    n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
                ]
            else:
                continue
            found += [
                f"{name}:{node.lineno} {d}"
                for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in read
            ]
    assert found == []


def test_one_field_arithmetic():
    # an element is its index: coefficient-vector products (the _poly_*
    # helpers of ffield) build the tables and nothing else, and no module
    # reads an element's coefficients
    table_builders = {("FieldDescriptor", "generator"), ("FieldDescriptor", "_ensure_tables")}
    guarded = {
        node.name
        for node in ast.parse((SRC / "ffield.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_poly_")
    }
    assert guarded
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for scope, line in _references(tree, guarded):
            if scope[:2] not in table_builders:
                found.append(f"{path.name}:{line}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "coeffs":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_points_are_index_rows():
    # a point is a row of field indices: no module but ffield turns an
    # index into a FieldElement (from_index) or lists the field's elements
    names = {"from_index", "elements"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "ffield.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_point_refusals_live_in_point_rows():
    # an index outside the field and the zero vector are refused in one
    # function, families.point_rows, which every function taking points
    # calls: no other function raises either refusal
    phrases = ("is not an element of", "not a projective point")
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Raise):
                    continue
                text = " ".join(
                    c.value for c in ast.walk(node)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
                found += [(path.name, fn.name, ph) for ph in phrases if ph in text]
    assert found == [("families.py", "point_rows", ph) for ph in phrases]


def test_missing_roots_of_unity_are_refused_in_primitive_nth_root():
    # RootOfUnityUnavailable is raised in one function,
    # ffield.primitive_nth_root, which every check for a primitive root
    # calls: no other function raises it
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Raise) and any(
                    isinstance(c, ast.Name) and c.id == "RootOfUnityUnavailable"
                    for c in ast.walk(node)
                ):
                    found.append((path.name, fn.name))
    assert found == [("ffield.py", "primitive_nth_root")]


def test_symbolic_layer_stays_in_its_modules():
    # MPoly is the symbolic reference: the families build polynomials, and
    # the counting, scans, symmetry checks, other checks and CLI do not
    allowed = {"mvpoly.py", "families.py"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                dotted = [a.name.split(".") for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = (node.module or "").split(".")
                dotted = [base + [a.name] for a in node.names]
            else:
                continue
            if path.name not in allowed and any("mvpoly" in d for d in dotted):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_record_types_do_not_import_dataclasses():
    # importing dataclasses loads inspect, ast, dis and tokenize; every
    # record type of the package is a NamedTuple
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "dataclasses" in modules:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_singular_defines_no_class():
    # singular hands out index rows (singular points, fibers, the surface's
    # points) and masks, never a report record
    tree = ast.parse((SRC / "singular.py").read_text())
    assert [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)] == []


def test_reduction_stays_in_ffield():
    # FieldArray defers prime-field reductions and FieldDescriptor._mod_p
    # performs them: no other module reduces arrays with numpy's remainders
    names = {"remainder", "mod", "fmod"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "ffield.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in names and (
                isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"}
            ):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy" and any(
                a.name in names for a in node.names
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_jet_partials_leave_ffield_only_as_one_stack():
    # a jet's partials (the attribute d, None where one is known to vanish)
    # become index arrays in one place, Jet.partials, which fills the
    # zeros and stacks Jacobians and Hessians alike: no other module reads d
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "ffield.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "d":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_size_caps_are_read_only_in_counting():
    # counting.check_size is the one statement of the count size limits:
    # no other module names TABLE_CAP or NAIVE_CAP
    caps = {"TABLE_CAP", "NAIVE_CAP"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "counting.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Name) and node.id in caps
                or isinstance(node, ast.Attribute) and node.attr in caps
                or isinstance(node, ast.alias) and node.name in caps
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_pencil_degrees_are_written_only_in_the_family_table():
    # the table engine reads a family's degrees off its pencil: counting
    # names no FamilyId and imports none, and every Pencil is made in one
    # place, families._FAMILIES (through _pencil_row), so no per-family
    # exponent map grows beside the engine
    assert _references(ast.parse((SRC / "counting.py").read_text()), {"FamilyId"}) == []
    made = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            owner = getattr(stmt, "name", None) or ",".join(
                t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)
            )
            made += [
                (path.name, owner)
                for node in ast.walk(stmt)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                in {"Pencil", "_pencil_row"}
            ]
    assert sorted(set(made)) == [("families.py", "_FAMILIES"), ("families.py", "_pencil_row")]
    assert made.count(("families.py", "_FAMILIES")) == 4


def test_no_module_starts_threads():
    # _lazy.lazy_numpy's first attribute access is not thread-safe on
    # Python 3.11, and every count and scan runs on one thread; cli.main
    # ends the process with os._exit, which joins no thread and runs no
    # exit hook: no module imports threading, concurrent.futures or atexit
    banned = {"threading", "concurrent", "atexit"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] in banned for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_reads_numpy_random():
    # numpy.random pulls in secrets, hashlib and its bit generators, about
    # 6 MB that stay resident; no module needs random draws, since the
    # verify rows check every point
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = [f"{getattr(node.value, 'id', '')}.{node.attr}"]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n.split(".")[:2] in (["np", "random"], ["numpy", "random"]) for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_calls_numpy_einsum():
    # the first np.einsum of a process raised a cold trace's peak RSS by
    # about 0.16 MB; a sum of products is a gather and a sum, or `@`
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "einsum":
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                found += [f"{path.name}:{node.lineno}" for a in node.names if a.name == "einsum"]
    assert found == []


def test_only_the_cli_opens_a_count_cache():
    # one cache per command: the CLI opens it once and hands it down, and
    # no count reloads the file
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and "CountCache" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_cached_builder_constructs_a_field():
    # ffield._field, under lru_cache, is the one constructor of
    # FieldDescriptor: one object per field, so identity is its equality
    # and the descriptor defines none of its own
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    top = {
        n.name: n for n in trees["ffield.py"].body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
    }
    assert any("lru_cache" in ast.unparse(d) for d in top["_field"].decorator_list)
    assert {"__eq__", "__hash__"}.isdisjoint(
        n.name for n in top["FieldDescriptor"].body if isinstance(n, ast.FunctionDef)
    )
    builder = set(ast.walk(top["_field"]))
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and node not in builder and "FieldDescriptor" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def _is_cache(node) -> bool:
    # functools.lru_cache or functools.cache, read or imported
    names = {"lru_cache", "cache"}
    if isinstance(node, ast.ImportFrom):
        return node.module == "functools" and any(a.name in names for a in node.names)
    return (
        isinstance(node, ast.Attribute) and node.attr in names
        and isinstance(node.value, ast.Name) and node.value.id == "functools"
    )


def test_only_fields_and_block_permutations_are_cached_for_the_process():
    # a functools cache keeps what it returns until the process exits: one
    # descriptor per field and the permutations of a block are kept so, but
    # a working table (a walk's sorted tuples, a count's arrays) must die
    # with its work
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        decorating = set()
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for d in fn.decorator_list:
                    if any(map(_is_cache, ast.walk(d))):
                        found.append((path.name, fn.name))
                        decorating.update(ast.walk(d))
        found += [
            (path.name, node.lineno)
            for node in ast.walk(tree)
            if _is_cache(node) and node not in decorating
        ]
    assert found == [("ffield.py", "_field"), ("singular.py", "_block_permutations")]


def _import_time_nodes(node):
    # the nodes that run while their module is imported: all but function
    # bodies and annotations (strings under `from __future__ import annotations`)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        for n in [*args.defaults, *args.kw_defaults, *getattr(node, "decorator_list", [])]:
            if n is not None:
                yield from ast.walk(n)
        return
    yield node
    for child in ast.iter_child_nodes(node):
        if not (isinstance(node, ast.AnnAssign) and child is node.annotation):
            yield from _import_time_nodes(child)


def test_numpy_loads_on_first_use():
    # numpy is executed by the first array operation, not by importing the
    # package: only _lazy imports it, and no module reads np while it is
    # being imported
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        reads_np = any(isinstance(n, ast.Name) and n.id == "np" for n in ast.walk(tree))
        if reads_np and not any(
            isinstance(n, ast.ImportFrom) and n.module == "__future__"
            and any(a.name == "annotations" for a in n.names)
            for n in tree.body
        ):
            found.append(f"{path.name}: annotations are evaluated")
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if path.name != "_lazy.py" and any(
                m == "numpy" or m.startswith("numpy.") for m in modules
            ):
                found.append(f"{path.name}:{node.lineno}")
        for node in _import_time_nodes(tree):
            if isinstance(node, ast.Name) and node.id == "np" and isinstance(node.ctx, ast.Load):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_suites_are_the_traced_functions():
    # perfbench times each suite by wrapping verify.suite_<name>: every
    # suite is that module-level function and runs its rows when called
    # (a generator function would run them only as its caller iterates)
    from mirrorquintic import verify

    for key, suite in verify.SUITES.items():
        assert suite.__name__ == f"suite_{key}"
        assert suite.__module__ == "mirrorquintic.verify"
        assert getattr(verify, suite.__name__) is suite
        assert not inspect.isgeneratorfunction(suite)
