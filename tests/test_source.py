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



def test_every_public_name_is_in_all():
    # a public def or class missing from __all__ hides part of the API from
    # `from module import *` and from readers; the package's lazily loaded
    # names must be public in the module that defines them
    exported, unlisted = {}, []
    for path in sorted(Path(substrum.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        public = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.append(node.name)
            elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported[path.stem] = ast.literal_eval(node.value)
        unlisted += [f"{path.name}:{name}" for name in public if name not in exported.get(path.stem, ())]
    unlisted += [f"{module}.py:{name}" for name, module in substrum._LAZY.items() if name not in exported.get(module, ())]
    assert unlisted == []

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


def test_every_private_name_is_used():
    # a private function, class, constant or method is reachable only from
    # inside the package, so one that no code reads is dead: the leftover of
    # a removed call path
    defined, read = [], set()
    for path in sorted(Path(substrum.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                if isinstance(node, ast.ClassDef):
                    names += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [f"{path.name}:{n}" for n in names if n.startswith("_") and not n.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert defined and [name for name in defined if name.split(":")[1] not in read] == []


def test_eigen_queries_take_the_record():
    # the spectral queries read one CharPoly that the caller keeps; only the
    # record's constructor and j_pr_kappa, which also applies M^t to a
    # vector, take the matrix
    tree = ast.parse((Path(substrum.__file__).parent / "eigen.py").read_text(encoding="utf-8"))
    exported = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    found = [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in exported and node.name not in ("char_poly", "j_pr_kappa")
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if arg.annotation is not None and "IntMatrix" in ast.unparse(arg.annotation)
    ]
    assert found == []
