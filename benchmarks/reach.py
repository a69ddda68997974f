"""Which ``src/repro`` lines the product runs: a reach audit.

    python benchmarks/reach.py [--json PATH]

"The product" is what a user runs, not the tests: the benchmark spine's
``--smoke`` pass, the 18 figure benches (``PYTHONHASHSEED=0``), every
``examples/*.py`` and a scripted ``repro.shell`` session.  Each runs in
its own interpreter with a ``sitecustomize`` on ``PYTHONPATH`` that
installs a ``sys.settrace`` (and ``threading.settrace``) hook recording
every line executed in a ``src/repro`` file, so child processes — the
spine's workers — count too; each process writes its lines when it
exits.

The union is compared per module with the module's executable lines
(the line starts of every code object compiled from it), and a Markdown
table of executable, reached and unreached lines per module is printed,
with the totals.  An unreached line is run by tests only, or by nothing:
a reference twin to move test-side, an error path to keep, or dead code.
``--json`` also writes every module's unreached line numbers.  This is
the source of DESIGN.md's reach table (§19), not part of the spine
benchmark; it takes about six minutes on a 2-core x86-64 box, most of
it the traced figure benches.
"""

from __future__ import annotations

import argparse
import dis
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Installed as ``sitecustomize`` in every traced interpreter.
HOOK = '''
import atexit, os, sys, threading

_root = os.environ["REACH_PACKAGE"]
_seen = set()


def _line(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_root) else None


@atexit.register
def _dump():
    sys.settrace(None)
    path = os.path.join(os.environ["REACH_OUT"], "%d.tsv" % os.getpid())
    with open(path, "w") as out:
        out.writelines("%s\\t%d\\n" % seen for seen in _seen)


sys.settrace(_call)
threading.settrace(_call)
'''

SHELL_SCRIPT = """\
:help
MATCH (a = 0) -[Friends]-> (b) RETURN b, b.Name
MATCH (a = 1) -[Friends]-> (b) -[Friends]-> (c) RETURN c.Name
MATCH (a = 2) -[Friends]-> (b) WHERE b.Name = "nobody" RETURN b
this is not a query
:stats
:metrics trunk.
:node 0
:node 999999
:quit
"""


def product_runs() -> list[tuple[str, list[str], pathlib.Path, str | None]]:
    """``(label, command, cwd, stdin)`` for every part of the product."""
    python = sys.executable
    runs = [("spine --smoke",
             [python, "benchmarks/spine/run.py", "--smoke"], ROOT, None)]
    benches = sorted(p.name for p in (ROOT / "benchmarks").glob("test_*.py"))
    runs.append(("figure benches",
                 [python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                  "--benchmark-disable", *benches],
                 ROOT / "benchmarks", None))
    for example in sorted((ROOT / "examples").glob("*.py")):
        runs.append((f"examples/{example.name}", [python, str(example)],
                     ROOT, None))
    runs.append(("repro.shell", [python, "-m", "repro.shell", "--people",
                                 "300"], ROOT, SHELL_SCRIPT))
    return runs


def run_traced(hook_dir: str, out_dir: str) -> None:
    for label, command, cwd, stdin in product_runs():
        path = [hook_dir, str(SRC)] + (["."] if cwd != ROOT else [])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
               "PYTHONHASHSEED": "0", "REACH_PACKAGE": str(PACKAGE),
               "REACH_OUT": out_dir}
        print(f"reach: {label}", file=sys.stderr, flush=True)
        subprocess.run(command, cwd=cwd, env=env, input=stdin, text=True,
                       stdout=subprocess.DEVNULL, check=True)


def reached_lines(out_dir: str) -> dict[str, set[int]]:
    reached: dict[str, set[int]] = {}
    for dump in pathlib.Path(out_dir).glob("*.tsv"):
        for row in dump.read_text().splitlines():
            filename, line = row.rsplit("\t", 1)
            reached.setdefault(filename, set()).add(int(line))
    return reached


def executable_lines(path: pathlib.Path) -> set[int]:
    """Line starts of every code object compiled from ``path`` (a
    module's code starts on a line 0 that no trace event reports)."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(const for const in code.co_consts
                     if isinstance(const, types.CodeType))
    return lines


def table(reached: dict[str, set[int]]) -> tuple[str, dict]:
    rows = []
    unreached_by_module = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = str(path.relative_to(SRC))
        executable = executable_lines(path)
        hit = executable & reached.get(str(path), set())
        missing = sorted(executable - hit)
        unreached_by_module[module] = missing
        rows.append((module, len(executable), len(hit), len(missing)))
    lines = ["| module | executable | reached | unreached |",
             "|---|---:|---:|---:|"]
    lines += [f"| `{module}` | {total:,} | {hit:,} | {missing:,} |"
              for module, total, hit, missing in rows]
    totals = [sum(row[i] for row in rows) for i in (1, 2, 3)]
    lines.append("| **total** | {:,} | {:,} | {:,} |".format(*totals))
    return "\n".join(lines), unreached_by_module


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", help="also write each module's "
                        "unreached line numbers here")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as hook_dir, \
            tempfile.TemporaryDirectory() as out_dir:
        pathlib.Path(hook_dir, "sitecustomize.py").write_text(HOOK)
        run_traced(hook_dir, out_dir)
        markdown, unreached = table(reached_lines(out_dir))
    print(markdown)
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(unreached, indent=1))


if __name__ == "__main__":
    main()
