"""The reach tool's classifier and its committed record."""

import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

from tests.tools.reach import (ENV, ROOT, SRC, SYSTEM, classify, functions,
                               load)

SOURCE = '''
from abc import ABC, abstractmethod


class Base(ABC):
    @abstractmethod
    def schedule(self):
        """Abstract."""

    def order(self):
        raise NotImplementedError

    def __repr__(self):
        return "<Base>"


class NullAnalysis:
    def on_kernel(self, task):
        pass

    def finalize(self):
        return Report()

    def busy(self):
        self.count += 1


def _ended(_exc):
    """Sink."""


def used():
    def inner():
        return 1
    return inner


def dead():
    return 2


class Task:
    def __init__(self):
        self.name = "t"

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other
'''


def _tree(tmp_path: Path) -> Path:
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "mod.py").write_text(textwrap.dedent(SOURCE))
    return tmp_path


def test_functions_carry_qualnames_lines_and_classes(tmp_path):
    found = {fn["name"]: fn for fn in functions(_tree(tmp_path))}
    assert found["repro/mod.py:used.inner"]["line"] == 33
    assert found["repro/mod.py:Base.schedule"]["line"] == 6  # decorator
    assert {name: fn["class"] for name, fn in found.items()
            if fn["class"]} == {
        "repro/mod.py:Base.schedule": "abstract",
        "repro/mod.py:Base.order": "abstract",
        "repro/mod.py:Base.__repr__": "dunder",
        "repro/mod.py:NullAnalysis.on_kernel": "null-object",
        "repro/mod.py:NullAnalysis.finalize": "null-object",
        "repro/mod.py:_ended": "failure-sink",
        "repro/mod.py:Task.__hash__": "dunder",
    }


def test_classify_splits_system_tests_and_nothing(tmp_path):
    src = _tree(tmp_path)
    lines = {fn["name"]: fn["line"] for fn in functions(src)}
    at = lambda name: ("repro/mod.py", lines[f"repro/mod.py:{name}"])  # noqa: E731
    record = classify(system={at("used")}, tests={at("used.inner")}, src=src)
    assert record["functions"]["repro/mod.py:used"] == "system"
    assert record["test_only"] == {"repro/mod.py:used.inner": 2}
    assert record["never"] == {"repro/mod.py:NullAnalysis.busy": 2,
                               "repro/mod.py:dead": 2,
                               "repro/mod.py:Task.__init__": 2,
                               "repro/mod.py:Task.__eq__": 2}
    assert record["counts"]["none_excluded"] == 7


def test_committed_record_matches_the_source():
    """``REACH.json`` names every ``def`` in ``src/`` and no other, and its
    exclusions carry the classes the source gives them."""
    record = json.loads((ROOT / "REACH.json").read_text())
    classes = {fn["name"]: fn["class"] for fn in functions()}
    assert set(record["functions"]) == set(classes)
    never = [name for name, reach in record["functions"].items()
             if reach == "none"]
    assert record["exclusions"] == {
        name: classes[name] for name in never if classes[name]}
    assert record["never"] == {}


def _ci_system_commands() -> set[str]:
    """ci.yml's ``python`` commands other than tier-1, ``tests/`` runs,
    heredocs, pip and the reach job, as CI writes them."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    found = set()
    for line in text.replace("\\\n", " ").splitlines():
        match = re.match(r"\s*(?:run:\s*)?(?:\w+=\S+\s+)*(python\s.*)", line)
        if not match:
            continue
        command = re.split(r"\s(?:>|\|\|)\s", match.group(1))[0]
        words = shlex.split(command)
        if (words[1] == "-" or words[1:3] == ["-m", "pip"]
                or words[1] == "tests/tools/reach.py"):
            continue
        if words[1:3] == ["-m", "pytest"] and not any(
                w.startswith("benchmarks/") for w in words):
            continue
        found.add(" ".join(words))
    return found


#: ci.yml's end-to-end smoke test, which also runs each workload twice
#: at ``--quick``; it fails at its XPASS(strict) kill case (ROADMAP
#: item 10), so the system run has the six ``run.py`` commands instead.
NOT_SYSTEM = {"python -m pytest -q benchmarks/e2e"}


def test_system_list_is_cis_own():
    assert _ci_system_commands() - NOT_SYSTEM == {
        command for command, _ in SYSTEM}


def test_hook_dumps_what_the_classifier_keys_on(tmp_path):
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'tests' / 'tools')!r})\n"
        "import reach\n"
        "reach.install(sys.argv[1])\n"
        "from repro.sim import Simulator\n"
        "Simulator().run()\n"
    )
    env = {k: v for k, v in os.environ.items() if k != ENV}
    env["PYTHONPATH"] = str(SRC)
    subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                   env=env, check=True)
    reached = load(tmp_path)
    lines = {fn["name"]: (fn["file"], fn["line"]) for fn in functions()}
    assert lines["repro/sim/core.py:Simulator.run"] in reached
    assert lines["repro/sim/core.py:Simulator.now"] not in reached
