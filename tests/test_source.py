"""Source-level checks on the package."""

import ast
import builtins
from pathlib import Path

import substrum


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so invariants must raise explicitly
    found = []
    for path in sorted(Path(substrum.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_package_does_not_import_sympy_at_module_level():
    # sympy is only needed to isolate roots of factors of degree >= 3, and
    # numpy only by the estimators; a module-level import would load them on
    # every CLI call
    found = []
    for path in sorted(Path(substrum.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == heavy or m.startswith(heavy + ".") for m in modules for heavy in ("sympy", "numpy")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_package_draws_no_random_numbers():
    # every result the package returns is deterministic: no module imports
    # random or numpy.random, or reaches np.random (default_rng lives there)
    found = []
    for path in sorted(Path(substrum.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            else:
                continue
            if any(n in ("random", "numpy.random", "np.random") for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_name_in_all_exists():
    # a name left in __all__ after its definition is gone breaks
    # `from module import *` and misleads readers of the public API
    missing = []
    for path in sorted(Path(substrum.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined, exported = set(), []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                defined.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                defined.update(names)
                if "__all__" in names:
                    exported = ast.literal_eval(node.value)
        missing += [f"{path.name}:{name}" for name in exported if name not in defined]
    assert missing == []


def test_every_exception_class_is_raised():
    # an exception type that no raise statement reaches is dead API: a
    # caller's handler for it can never run.  A raise reaches a class by
    # naming it, or by calling a function that returns an instance of it
    defined, raised, returned = [], set(), {}
    exceptions = {
        name for name, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    for path in sorted(Path(substrum.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in exceptions for b in node.bases
            ):
                exceptions.add(node.name)
                defined.append(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.update(n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name))
            elif isinstance(node, ast.FunctionDef):
                returned[node.name] = {
                    n.id
                    for ret in ast.walk(node)
                    if isinstance(ret, ast.Return) and ret.value is not None
                    for n in ast.walk(ret.value)
                    if isinstance(n, ast.Name)
                }
    for name in list(raised):
        raised |= returned.get(name, set())
    assert defined and [name for name in defined if name not in raised] == []


def test_report_reads_only_evidence_keys_that_classify_writes():
    # analysis_report falls back to recomputing what the evidence lacks, so
    # a key renamed on one side only would pass silently, doing work twice
    package = Path(substrum.__file__).parent
    written = set()
    for node in ast.walk(ast.parse((package / "classify.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) and ast.unparse(node.value) == "evidence":
            written.add(ast.literal_eval(node.slice))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Dict) and ast.unparse(node.target) == "evidence":
            written.update(ast.literal_eval(key) for key in node.value.keys)
    read = set()
    for node in ast.walk(ast.parse((package / "report.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Subscript) and ast.unparse(node.value) == "ev":
            read.add(ast.literal_eval(node.slice))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "ev.get":
            read.add(ast.literal_eval(node.args[0]))
        elif isinstance(node, ast.Compare) and [ast.unparse(c) for c in node.comparators] == ["ev"]:
            read.add(ast.literal_eval(node.left))
    assert "alphabet_size" in written and "sqrt_q" in read
    assert sorted(read - written) == []
