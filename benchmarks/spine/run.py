"""The benchmark spine: six workloads, absolute end-to-end numbers and an
outside-in per-layer trace.

    python3 benchmarks/spine/run.py                      # everything
    python3 benchmarks/spine/run.py --workload serve_hot # one workload
    python3 benchmarks/spine/run.py --smoke              # tiny sizes
    python3 benchmarks/spine/run.py --list               # why each exists

Every workload runs in its own fresh interpreter (``worker.py``): first an
untraced pass, which alone gives the end-to-end numbers, then a traced pass
over the same first blocks, which gives the per-layer numbers.  Both passes
check their answers; the parent checks that nothing was left behind.

With ``--trace 0|1`` (how a harness calls it) one workload is measured and
the last line printed is one JSON object ``{correct, attempted, failed,
metrics}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}

sys.path.insert(0, str(HERE))
import metrics                                          # noqa: E402

#: Two children at most per harness call, which must end within 180 s.
CHILD_TIMEOUT_S = 80.0


class Leftover(RuntimeError):
    """The benchmark left a process, file or shared segment behind."""


def git_commit() -> str:
    """HEAD's commit, read from the files (no process is started)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "commit": git_commit(),
        "loadavg_start": os.getloadavg()[0],
        "seed": seed,
    }


def shm_entries() -> list[str]:
    try:
        return sorted(os.listdir("/dev/shm"))
    except OSError:
        return []


def run_child(workload: str, seed: int, seconds: float, traced: bool,
              smoke: bool, timeout: float) -> dict:
    """One blocking child in its own session; its whole process group is
    killed on timeout.  Checks afterwards that it left nothing behind."""
    shm_before = shm_entries()
    OUT.mkdir(exist_ok=True)
    temp_root = OUT / f"tmp-{os.getpid()}"
    temp_root.mkdir()
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    command += ["--traced"] * traced + ["--smoke"] * smoke
    stdout = None
    stragglers = True
    try:
        with subprocess.Popen(
                command, stdout=subprocess.PIPE, text=True,
                start_new_session=True,
                env={**os.environ, "TMPDIR": str(temp_root)}) as child:
            try:
                stdout, _ = child.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
            finally:
                # nothing the child started may outlive it: kill whatever
                # is left of its session (itself, if it timed out)
                try:
                    os.killpg(child.pid, signal.SIGKILL)
                except ProcessLookupError:
                    stragglers = False
    finally:
        leftovers = sorted(p.name for p in temp_root.iterdir())
        shutil.rmtree(temp_root)
    if stdout is None:
        raise RuntimeError(f"{workload}: no result within {timeout:g} s")
    if child.returncode != 0:
        raise RuntimeError(
            f"{workload}: worker exited with {child.returncode}")
    if stragglers:
        raise Leftover(f"{workload}: the worker left processes running")
    if leftovers:
        raise Leftover(f"{workload}: temp files left behind: {leftovers}")
    if shm_entries() != shm_before:
        raise Leftover(f"{workload}: /dev/shm changed: {shm_entries()}")
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass                             # no child left, as it should be
    else:
        raise Leftover(f"{workload}: a child process is still around")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, smoke: bool,
            layers: bool, timeout: float) -> dict:
    """The untraced pass and, with ``layers``, the traced one."""
    untraced = run_child(workload, seed, seconds, False, smoke, timeout)
    problems = []
    if not untraced["gate"]["passed"]:
        problems.append("the correctness gate failed")
    if untraced["failed"]:
        problems.append(f"{untraced['failed']} operations failed")
    result = {"workload": workload, "untraced": untraced,
              "end_to_end": metrics.end_to_end(untraced)}
    if layers:
        traced = run_child(workload, seed, seconds, True, smoke, timeout)
        problems += metrics.passes_agree(untraced, traced)
        result["traced"] = traced
        result["per_layer"] = metrics.per_layer(untraced, traced)
    result["problems"] = problems
    return result


def show(result: dict) -> None:
    raw = result["untraced"]
    print(f"\n== {result['workload']}: {len(raw['blocks'])} blocks in "
          f"{raw['measured_s']:.1f} s, {raw['attempted']} operations, "
          f"{raw['failed']} failed, gate {raw['gate']}, "
          f"answers_digest {raw['digest'][:16]}")
    for name, (value, unit, samples) in result["end_to_end"].items():
        print(f"  {name:44s} {value:14.4f} {unit:9s} n={samples}")
    for name, (value, unit) in result.get("per_layer", {}).items():
        if value is not None:        # absent, not zero, where no work is done
            print(f"  {name:44s} {value:14.6g} {unit}")
    if "traced" in result:
        missing = result["traced"]["trace"]["missing_seam"]
        if missing:
            print(f"  missing_seam: {missing}")
    for problem in result["problems"]:
        print(f"  INCORRECT: {problem}")


def contract_line(result: dict, layers: bool) -> str:
    """The one-line result a harness reads."""
    raw = result["untraced"]
    correct = not result["problems"]
    if layers:
        values = {name: {"value": 0 if value is None else value,
                         "unit": unit}
                  for name, (value, unit) in result["per_layer"].items()}
    else:
        values = {name: {"value": value, "unit": unit}
                  for name, (value, unit, _n) in result["end_to_end"].items()}
    return json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"] if correct else raw["attempted"],
        "metrics": values,
    })


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long each untraced pass measures "
                             f"(default {SPEC['run_seconds']}; smoke 0.5)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="harness mode: 0 prints the end-to-end metrics "
                             "as the last line, 1 the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: a functional check, not a "
                             "measurement")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced pass")
    parser.add_argument("--list", action="store_true",
                        help="print why each workload exists")
    parser.add_argument("--child-timeout", type=float,
                        default=CHILD_TIMEOUT_S, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.list:
        for name, why in WORKLOADS.items():
            print(f"{name:18s} {why}")
        return 0
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    seconds = args.seconds
    if seconds is None:
        seconds = 0.5 if args.smoke else float(SPEC["run_seconds"])
    layers = args.trace == 1 or (args.trace is None and not args.no_trace)
    if args.trace == 1:
        # per-layer numbers only: the untraced pass is there to compare
        # against, half the time is enough
        seconds /= 2

    env = fingerprint(args.seed)
    print("environment: " + json.dumps(env))
    results = []
    for workload in ([args.workload] if args.workload else WORKLOADS):
        try:
            result = measure(workload, args.seed, seconds, args.smoke,
                             layers, args.child_timeout)
        except RuntimeError as error:     # no result is printed
            print(f"benchmark spine: {error}", file=sys.stderr)
            return 2
        show(result)
        results.append(result)
    OUT.mkdir(exist_ok=True)
    name = args.workload or "all"
    (OUT / f"result_{name}.json").write_text(json.dumps(
        {"environment": env, "seconds": seconds, "smoke": args.smoke,
         "results": results}, indent=1))
    correct = not any(r["problems"] for r in results)
    if args.trace is not None:
        print(contract_line(results[0], layers=args.trace == 1))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
