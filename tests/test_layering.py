"""Layering rules, checked on the syntax tree (nothing is imported).

* A fast path meets its reference in one place: ``raise
  DivergenceError`` occurs only in ``repro/oracle.py``, which itself
  leans on nothing in ``repro`` but ``errors`` and ``obs``.
* Whether to check is a scope (``repro.oracle.checking``), not a
  parameter: no public callable takes ``cross_check`` but
  ``BspEngine``'s constructor.
* The reference is not a mode a caller can select: no public callable
  under ``repro.algorithms`` or ``repro.tql`` takes a ``batch``
  parameter.
* The ratio-against-a-slow-sibling harnesses stay retired.
* A batched read is located in one place, the cloud's span directory:
  the per-trunk lookup it replaced stays retired, and the directory
  leans on nothing in ``repro`` but ``errors``, ``obs``, ``utils`` and
  the hash table it mirrors.
* There is one execution path and it runs in this process: nothing
  under ``repro`` imports a process-starting module or forks, and no
  public callable takes one of the parameters that used to select the
  shared-memory fork.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def trees(directory: pathlib.Path):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)


def test_only_the_oracle_raises_divergence_error():
    raisers = {path.relative_to(SRC).as_posix()
               for path, tree in trees(SRC)
               for node in ast.walk(tree)
               if isinstance(node, ast.Raise) and node.exc is not None
               and raised_name(node) == "DivergenceError"}
    assert raisers == {"oracle.py"}


def internal_imports(path: pathlib.Path) -> tuple[ast.Module, set[str]]:
    """The module's tree and the ``repro`` modules it imports from,
    named from the package root (``memcloud.hashtable``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    package = path.relative_to(SRC).parts[:-1]
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package[:len(package) - node.level + 1]
            internal.add(".".join([*base, *filter(None, [node.module])]))
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "repro":
            internal.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            internal.update(alias.name.partition(".")[2]
                            for alias in node.names
                            if alias.name.split(".")[0] == "repro")
    return tree, internal


def test_oracle_depends_on_errors_and_obs_only():
    tree, internal = internal_imports(SRC / "oracle.py")
    assert internal == {"errors", "obs"}
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert public == ["checking", "is_checking", "shadow"]


def test_only_the_bsp_engine_takes_cross_check():
    """``ServeConfig.cross_check`` is a config field, not a parameter;
    it and ``BspEngine(cross_check=)`` stay while a frozen benchmark
    sets them."""
    offenders = public_callables_taking(SRC, {"cross_check"})
    assert [re.sub(r":\d+ ", " ", entry) for entry in offenders] == \
        ["compute/bsp.py __init__"]


def public_callables_taking(directory: pathlib.Path, forbidden: set[str]):
    """``file:line name`` of every public function or method (``__init__``
    counts: it is how a class is called) with a parameter in
    ``forbidden``."""
    offenders = []
    for path, tree in trees(directory):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_") and node.name != "__init__":
                continue
            args = node.args
            names = {a.arg for a in (args.posonlyargs + args.args
                                     + args.kwonlyargs)}
            if names & forbidden:
                offenders.append(
                    f"{path.relative_to(SRC)}:{node.lineno} {node.name}")
    return offenders


def test_no_public_callable_selects_the_scalar_path():
    for package in ("algorithms", "tql"):
        assert not public_callables_taking(SRC / package, {"batch"})


def test_no_public_callable_selects_another_execution_path():
    assert not public_callables_taking(
        SRC, {"backend", "workers", "shared_arenas", "shared",
              "lock_factory"})


def starts_a_process(node: ast.AST) -> bool:
    """Imports ``multiprocessing`` or ``subprocess``, or names
    ``os.fork`` / ``os._exit``."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        modules = [node.module or ""]
    else:
        return (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in ("fork", "_exit"))
    return any(module.split(".")[0] in ("multiprocessing", "subprocess")
               for module in modules)


def test_nothing_under_src_starts_a_process():
    offenders = [f"{path.relative_to(SRC)}:{node.lineno}"
                 for path, tree in trees(SRC)
                 for node in ast.walk(tree) if starts_a_process(node)]
    assert not offenders


def test_pre_spine_harnesses_stay_retired():
    benchmarks = ROOT / "benchmarks"
    assert not sorted(benchmarks.glob("_perf*.py"))
    assert not sorted((benchmarks / "results").glob("BENCH_*.json"))


def test_the_per_trunk_lookup_stays_retired():
    retired = ("bulk_lookup", "_ROUNDS_MIN", "_VECTOR_MIN", "_span_cache")
    offenders = [f"{path.relative_to(SRC)}: {name}"
                 for path in sorted(SRC.rglob("*.py"))
                 for name in retired
                 if name in path.read_text(encoding="utf-8")]
    assert not offenders


def test_span_directory_depends_on_the_hash_table_only():
    _, internal = internal_imports(SRC / "memcloud" / "directory.py")
    assert internal <= {"errors", "obs", "utils", "memcloud.hashtable"}
    assert "memcloud.hashtable" in internal
