"""README.md states contracts, so its examples must hold: every command
line and the config block build a ``StudyConfig``, the library sketch's
commented values are what the code returns, and the tracer's pinned names
are listed.  No study runs."""

import ast
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from mixedflow.cli import _build_parser, _config_from_args
from mixedflow.harness import StudyConfig, parse_config_text

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
MAX_LINES = 150


def fenced_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def command_lines() -> list[str]:
    return [line.split("#")[0].strip() for block in fenced_blocks("sh")
            for line in block.splitlines() if line.startswith("mixedflow ")]


def test_readme_is_short():
    assert len(README.splitlines()) <= MAX_LINES


def test_readme_has_every_example():
    assert len(command_lines()) == 4
    assert len(fenced_blocks("ini")) == 1 and len(fenced_blocks("python")) == 1


@pytest.mark.parametrize("line", command_lines())
def test_command_line_builds_its_config(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # --out paths are checked against the cwd
    argv = shlex.split(line)[1:]
    cfg = _config_from_args(_build_parser().parse_args(argv))
    assert cfg.study == argv[0]
    if "--levels" in argv:
        levels = argv[argv.index("--levels") + 1]
        assert cfg.levels == tuple(int(n) for n in levels.split(","))


def test_ini_block_builds_its_config():
    fields = parse_config_text(fenced_blocks("ini")[0])
    cfg = StudyConfig(**fields)
    assert cfg.study == "convergence" and cfg.levels == (4, 8, 16)


def test_library_sketch_values():
    """Runs the sketch statement by statement; an expression with a comment
    ``# value`` or ``# label: value`` must evaluate to that value."""
    source = fenced_blocks("python")[0]
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        comment = lines[node.end_lineno - 1].partition("#")[2]
        if isinstance(node, ast.Expr) and comment:
            want = ast.literal_eval(comment.rpartition(":")[2].strip())
            got = eval(code, namespace)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 2


def test_lists_every_name_the_tracer_pins():
    spans = (ROOT / "perfbench" / "spans.py").read_text()
    targets = re.findall(r"^\s*\(([\w.]+), \"(\w+)\", \"", spans, re.M)
    assert len(targets) >= 20
    names = {f"{owner.rpartition('.')[2]}.{attr}" for owner, attr in targets}
    names.add("solver.spla")
    missing = sorted(n for n in names if f"`{n}`" not in README)
    assert not missing
