"""Which ``src/`` functions the tests and the system reach.

Three parts, standard library only:

* **Hook.** :func:`install` sets a :func:`sys.setprofile` hook that
  records every code object called, and dumps the ``src/repro``
  functions among them to one JSON file per process when it exits.
  The runner installs it in every Python process it starts, their
  subprocesses included, through a generated ``sitecustomize`` module.
* **Runner.** Tier-1 (``pytest`` at ``--hypothesis-seed=0``) is the
  *tests* run; :data:`SYSTEM` lists the *system* run, CI's own commands:
  the CLI commands, benches, paper-claim benches, examples and every
  workload of the end-to-end benchmark at ``--quick``.
* **Classifier.** Every ``def`` in ``src/repro`` is reached by the
  system, by the tests only, or by nothing.  A function reached by
  nothing must fall in one of four declared classes (:func:`exclusion`),
  or the check fails.

Run from the repository root::

    PYTHONHASHSEED=0 python tests/tools/reach.py --out REACH.json

It exits 1 when a function outside the four classes is reached by
nothing, and 2 when a command of either run fails.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import glob
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SCHEMA = "repro-reach/1"

#: The environment variable naming the directory a hooked process dumps to.
ENV = "REACH_DUMP_DIR"

_SRC_FILE = re.compile(r"(?:^|[\\/])src[\\/](repro[\\/].*\.py)$")

# -- hook ---------------------------------------------------------------


def install(dump_dir: str) -> None:
    """Record every code object this process calls; dump at exit."""
    seen: set = set()
    add = seen.add

    def hook(frame, event, _arg):
        if event == "call":
            add(frame.f_code)

    def dump():
        sys.setprofile(None)
        reached = set()
        for code in seen:
            match = _SRC_FILE.search(code.co_filename)
            if match:
                path = match.group(1).replace("\\", "/")
                reached.add((path, code.co_firstlineno))
        name = f"{os.getpid()}-{time.monotonic_ns()}.json"
        with open(os.path.join(dump_dir, name), "w") as fh:
            json.dump(sorted(reached), fh)

    atexit.register(dump)
    threading.setprofile(hook)
    sys.setprofile(hook)


_SITECUSTOMIZE = f"""\
import os
if os.environ.get({ENV!r}):
    import importlib.util
    _spec = importlib.util.spec_from_file_location(
        "_reach_hook", {str(Path(__file__).resolve())!r})
    _mod = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_mod)
    _mod.install(os.environ[{ENV!r}])
"""

# -- runner -------------------------------------------------------------

PY = sys.executable

#: CI's system commands, written as ``.github/workflows/ci.yml`` runs
#: them, each with the exit code it must end with.  ``test_reach`` fails
#: when this list and ci.yml's ``python`` commands outside tier-1 and
#: ``tests/`` differ, so the two cannot drift apart.
SYSTEM = (
    ("python -m repro.bench trace stencil_1d --nodes 4 --steps 4 "
     "--iterations 100000 --out trace.json", 0),
    ("python -m repro.bench jobs --overload --load 1 --quick "
     "--json overload.json", 0),
    ("python -m repro.bench check demo-clean --json", 0),
    ("python -m repro.bench check demo-racy --json", 1),
    ("python -m repro.bench check stencil_1d --nodes 4 --steps 4 "
     "--iterations 100000", 0),
    ("python benchmarks/bench_kill_sweep.py --quick --out kills.json", 0),
    ("python benchmarks/bench_jobs_backfill.py --quick", 0),
    ("python benchmarks/bench_jobs_overload.py --quick", 0),
    ("python benchmarks/bench_jobs_overload.py --check --quick", 0),
    ("python benchmarks/bench_ablation_memory.py --json mem.json", 0),
    ("python benchmarks/bench_shard_scaling.py --quick --out shard.json", 0),
    ("python -m pytest -q --benchmark-disable benchmarks/bench_fig*.py "
     "benchmarks/bench_ablation_*.py benchmarks/bench_metg.py", 0),
    ("python benchmarks/e2e/run.py --workload fig5-stencil64 --quick "
     "--seconds 0", 0),
    ("python benchmarks/e2e/run.py --workload head-1024 --quick "
     "--seconds 0", 0),
    ("python benchmarks/e2e/run.py --workload shard-1024 --quick "
     "--seconds 0", 0),
    ("python benchmarks/e2e/run.py --workload resilient --quick "
     "--seconds 0", 0),
    ("python benchmarks/e2e/run.py --workload serving-3x --quick "
     "--seconds 0", 0),
    ("python benchmarks/e2e/run.py --workload awave-rtm --quick "
     "--seconds 0", 0),
    ("python examples/data_pipeline.py", 0),
    ("python examples/fault_tolerance.py", 0),
    ("python examples/gpu_offloading.py", 0),
    ("python examples/head_failover.py", 0),
    ("python examples/memory_pressure.py", 0),
    ("python examples/multi_job.py", 0),
    ("python examples/quickstart.py", 0),
    ("python examples/seismic_imaging.py", 0),
    ("python examples/sharded_control.py", 0),
    ("python examples/taskbench_comparison.py", 0),
)

#: CI's schema check of the exported trace (a heredoc in ci.yml).
_TRACE_CHECK = (
    "import json, sys\n"
    "from repro.obs import validate_chrome_trace\n"
    "events = json.load(open(sys.argv[1]))['traceEvents']\n"
    "assert not validate_chrome_trace(events)\n"
)


def _argv(command: str, tmp: Path) -> list[str]:
    """``command``'s arguments after ``python``, run from the repository
    root: output files go to ``tmp`` and file globs are expanded."""
    args = []
    for word in shlex.split(command)[1:]:
        if args and args[-1] in ("--out", "--json"):
            word = str(tmp / word)
        if "*" in word:
            args += sorted(glob.glob(word, root_dir=ROOT))
        else:
            args.append(word)
    if args[:2] == ["-m", "pytest"]:
        args[2:2] = ["-p", "no:cacheprovider"]
    return args


def _system(tmp: str) -> list[tuple[list[str], int]]:
    """:data:`SYSTEM` as argument lists, the trace check after its export."""
    out = Path(tmp)
    cmds = [(_argv(command, out), want) for command, want in SYSTEM]
    cmds.insert(1, (["-c", _TRACE_CHECK, str(out / "trace.json")], 0))
    return cmds


def _tests() -> list[tuple[list[str], int]]:
    return [(["-m", "pytest", "-q", "-p", "no:cacheprovider",
              "--hypothesis-seed=0", "tests"], 0)]


def run(part: str, cmds, dump_dir: Path, site_dir: str) -> list[str]:
    """Run ``cmds`` hooked, dumping into ``dump_dir``; return failures."""
    dump_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env[ENV] = str(dump_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        [site_dir, str(SRC)] + ([env["PYTHONPATH"]]
                                if env.get("PYTHONPATH") else []))
    env.setdefault("PYTHONHASHSEED", "0")
    failures = []
    for args, want in cmds:
        label = " ".join(args if len(args) < 12 else args[:11] + ["..."])
        label = label.splitlines()[0]
        start = time.monotonic()
        proc = subprocess.run([PY, *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        took = time.monotonic() - start
        ok = proc.returncode == want
        print(f"[{part}] {'ok  ' if ok else 'FAIL'} {took:6.1f}s  {label}",
              flush=True)
        if not ok:
            failures.append(f"{label}: exit {proc.returncode}, "
                            f"expected {want}\n{proc.stdout[-3000:]}")
    return failures


# -- classifier ---------------------------------------------------------

#: Dunders no run needs to call: ``__repr__`` debug aids, and
#: ``Task.__hash__``, which keeps the dataclass hashable.
DUNDERS = ("__repr__", "Task.__hash__")
#: Null-object no-ops: the disabled observer's and analysis' hooks.
#: Their callers test ``enabled`` first, so no run calls them; they
#: exist so a component can hold the null object unconditionally.
NULL_OBJECT_OWNERS = ("NullObserver", "NullAnalysis", "_NullMpiChecker")
#: A closed run's failure sink (``HeadCore.close`` points the event
#: system at it; only an error after the run's end would reach it).
FAILURE_SINKS = ("_ended",)


def functions(src: Path = SRC) -> list[dict]:
    """Every ``def`` under ``src/repro``, in file and line order."""
    found = []
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(), str(path))
        _walk(tree, rel, [], None, found)
    names: dict[str, int] = {}
    for fn in found:
        names[fn["name"]] = names.get(fn["name"], 0) + 1
    for fn in found:
        if names[fn["name"]] > 1:
            fn["name"] += f"@{fn['line']}"
    return found


def _walk(node, rel, scope, owner, found) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _walk(child, rel, scope + [child.name], child, found)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            qual = ".".join(scope + [child.name])
            found.append({
                "name": f"{rel}:{qual}", "file": rel, "line": first,
                "lines": child.end_lineno - first + 1,
                "class": exclusion(child, owner),
            })
            _walk(child, rel, scope + [child.name], None, found)
        else:
            _walk(child, rel, scope, owner, found)


def _body(fn) -> list:
    body = fn.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return body


def _is_noop(fn) -> bool:
    body = _body(fn)
    if not body:
        return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return True  # ``...``
    if not isinstance(stmt, ast.Return):
        return False
    value = stmt.value
    # ``return``, ``return <constant>`` or ``return Empty()``.
    return (value is None or isinstance(value, ast.Constant)
            or (isinstance(value, ast.Call) and not value.args
                and not value.keywords))


def exclusion(fn, owner) -> str | None:
    """The declared class that excuses ``fn`` from being reached, if any."""
    name = fn.name
    if name in DUNDERS or (owner is not None
                           and f"{owner.name}.{name}" in DUNDERS):
        return "dunder"
    decorators = {d.attr if isinstance(d, ast.Attribute) else
                  getattr(d, "id", None) for d in fn.decorator_list}
    body = _body(fn)
    raises = (len(body) == 1 and isinstance(body[0], ast.Raise)
              and "NotImplementedError" in ast.unparse(body[0]))
    if "abstractmethod" in decorators or raises:
        return "abstract"
    if (owner is not None and owner.name in NULL_OBJECT_OWNERS
            and _is_noop(fn)):
        return "null-object"
    if name in FAILURE_SINKS and _is_noop(fn):
        return "failure-sink"
    return None


def load(dump_dir: Path) -> set[tuple[str, int]]:
    reached = set()
    for path in dump_dir.glob("*.json"):
        reached.update(map(tuple, json.loads(path.read_text())))
    return reached


def classify(system: set, tests: set, src: Path = SRC) -> dict:
    """The reach record: each function's reach and each exclusion."""
    record = {"schema": SCHEMA, "functions": {}, "exclusions": {},
              "test_only": {}, "never": {}}
    counts = {"system": 0, "tests": 0, "none": 0}
    lines = {"system": 0, "tests": 0, "none": 0}
    for fn in functions(src):
        key = (fn["file"], fn["line"])
        reach = ("system" if key in system
                 else "tests" if key in tests else "none")
        record["functions"][fn["name"]] = reach
        counts[reach] += 1
        lines[reach] += fn["lines"]
        if reach == "tests":
            record["test_only"][fn["name"]] = fn["lines"]
        elif reach == "none":
            if fn["class"] is None:
                record["never"][fn["name"]] = fn["lines"]
            else:
                record["exclusions"][fn["name"]] = fn["class"]
    record["counts"] = {
        "functions": len(record["functions"]), **counts,
        "none_excluded": len(record["exclusions"]),
        "none_unexcused": len(record["never"]),
    }
    record["lines"] = lines
    return record


def report(record: dict) -> None:
    counts = record["counts"]
    print(f"{counts['functions']} functions: {counts['system']} reached by "
          f"the system, {counts['tests']} by tests only, {counts['none']} "
          f"by nothing ({counts['none_excluded']} in a declared class)")
    print(f"\ntest-only functions ({len(record['test_only'])}, "
          f"{record['lines']['tests']} lines):")
    for name, n in record["test_only"].items():
        print(f"  {name} ({n} lines)")
    if record["never"]:
        print(f"\nreached by nothing, outside the declared classes "
              f"({len(record['never'])}):")
        for name, n in record["never"].items():
            print(f"  {name} ({n} lines)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, help="write the record here")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        site = Path(tmp) / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(_SITECUSTOMIZE)
        dumps = Path(tmp) / "dumps"
        failures = run("system", _system(tmp), dumps / "system", str(site))
        failures += run("tests", _tests(), dumps / "tests", str(site))
        record = classify(load(dumps / "system"), load(dumps / "tests"))

    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    for failure in failures:
        print(f"\ncommand failed: {failure}")
    if failures:
        return 2
    return 1 if record["never"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
