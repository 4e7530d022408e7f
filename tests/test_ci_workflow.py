"""Structural checks on the GitHub Actions workflow files.

CI installs no YAML parser, so this reads the workflows with the standard
library alone.  A key repeated inside one step is rejected by GitHub, and
YAML loaders that accept it silently keep only the last value, which can
drop a whole command without any visible failure.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

import pytest

WORKFLOWS = sorted(
    (Path(__file__).resolve().parents[1] / ".github" / "workflows").glob("*.yml")
)
STEPS = re.compile(r"^\s*steps:\s*(#.*)?$")
ITEM = re.compile(r"^\s*- ([\w-]+):")
KEY = re.compile(r"^\s*([\w-]+):")


def workflow_steps(text: str) -> list[tuple[int, Counter]]:
    """Every item of every ``steps:`` list: (first line, count per key).

    Only keys at the step's own indentation count; deeper lines belong to
    nested mappings or block scalars such as a ``run: |`` script.
    """
    steps: list[tuple[int, Counter]] = []
    steps_at = item_at = None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.lstrip()
        if not stripped or stripped.startswith("#"):
            continue
        indent = len(line) - len(stripped)
        if steps_at is not None:
            item = ITEM.match(line)
            if item_at is None and item and indent >= steps_at:
                item_at = indent
            if item and indent == item_at:
                steps.append((lineno, Counter([item.group(1)])))
                continue
            if item_at is not None and indent > item_at:
                key = KEY.match(line)
                if key and indent == item_at + 2:
                    steps[-1][1][key.group(1)] += 1
                continue
            steps_at = item_at = None
        if STEPS.match(line):
            steps_at = indent
    return steps


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_no_step_repeats_a_key(path):
    steps = workflow_steps(path.read_text())
    assert steps, f"{path.name}: no steps found"
    repeated = [
        (lineno, key) for lineno, keys in steps for key, n in keys.items() if n > 1
    ]
    assert not repeated, f"{path.name}: step keys repeated at (line, key) {repeated}"


def test_checker_sees_a_repeated_run():
    text = """\
jobs:
  a:
    steps:
      - uses: actions/checkout@v4
      - name: first
        run: |
          echo one
          run: not a key, part of the script
        run: echo two
    other: 1
  b:
    steps:
    - name: same-indent list
      run: echo three
"""
    steps = workflow_steps(text)
    assert [lineno for lineno, _ in steps] == [4, 5, 13]
    assert steps[1][1] == Counter(name=1, run=2)
    assert steps[2][1] == Counter(name=1, run=1)


def test_workflows_exist():
    assert any(p.name == "ci.yml" for p in WORKFLOWS)
