"""tools/same_outputs.py: the command list and the byte-for-byte comparison."""

import importlib.util
from pathlib import Path

import pytest

from ffdist.harness import RUNNERS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_commands_cover_ops_examples_help_and_errors(tool):
    cmds = tool.commands(RUNNERS)
    assert len(cmds) == len({tuple(c) for c in cmds})
    for ops in tool.WORKLOADS.values():
        for op in ops:
            for seed in (1, 2):
                assert op.argv(seed) + ["--deterministic", "--out", "out"] in cmds
    assert len(tool.ORBIT_CASES) == 7 and len(tool.EDGE_CASES) == 45
    for text in tool.ORBIT_CASES + tool.EDGE_CASES:
        assert text.split() + ["--deterministic", "--out", "out"] in cmds
    examples = tool.readme_examples()
    assert len(examples) == 4 and examples[-1][0] == "scan" and "--grid" in examples[-1]
    for argv in examples:
        assert argv + ["--deterministic"] in cmds
    assert ["--help"] in cmds
    assert all([name, "--help"] in cmds for name in RUNNERS)
    assert all(text.split() + ["--deterministic"] in cmds for text in tool.ERROR_CASES)


def fake_src(root: Path, body: str) -> str:
    package = root / "ffdist"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "__main__.py").write_text(body, encoding="utf-8")
    return str(root)


def test_compare_reports_each_kind_of_difference(tool, tmp_path):
    same = "import sys\nprint(sys.argv[1:])\n"
    differs = (
        "import pathlib, sys\n"
        "print(sys.argv[2:])\n"
        "print('warning', file=sys.stderr)\n"
        "pathlib.Path('out.json').write_text('{}')\n"
        "sys.exit(4)\n"
    )
    a = fake_src(tmp_path / "a", same)
    b = fake_src(tmp_path / "b", same)
    c = fake_src(tmp_path / "c", differs)
    cmds = [["weil", "--q", "7"], ["--help"]]
    assert tool.compare(a, b, cmds) == []
    assert tool.compare(a, c, cmds) == [
        ("weil --q 7", ["exit 0 != 4", "stdout", "stderr", "file out.json"]),
        ("--help", ["exit 0 != 4", "stdout", "stderr", "file out.json"]),
    ]
    assert tool.run_one(a, ["x"])[3] == {"points.txt": tool.POINTS.encode()}


def test_compare_masks_only_the_free_memory_figure(tool, tmp_path):
    refusal = (
        "import sys\n"
        "print('config error: decay over F_7^9 holds grids of 40353607 points, "
        "about 4.8 GiB, but this machine has {} GiB free', file=sys.stderr)\n"
        "sys.exit(2)\n"
    )
    a = fake_src(tmp_path / "a", refusal.format("7.3"))
    b = fake_src(tmp_path / "b", refusal.format("12.0"))
    c = fake_src(tmp_path / "c", refusal.format("7.3").replace("4.8 GiB", "4.9 GiB"))
    d = fake_src(tmp_path / "d", refusal.format("7.3").replace("machine has", "host has"))
    cmds = [["decay", "--q", "7"]]
    assert tool.compare(a, b, cmds) == []
    assert tool.compare(a, c, cmds) == [("decay --q 7", ["stderr"])]
    assert tool.compare(b, d, cmds) == [("decay --q 7", ["stderr"])]
