"""README.md's "Library in one minute" block runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The python block under the "Library in one minute" heading."""
    section = README.read_text(encoding="utf-8").split("## Library in one minute\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_in_one_minute_runs():
    scope = {}
    exec(compile(library_block(), str(README), "exec"), scope)
    assert scope["F13"].q == 13 and scope["E"].size == 169
    assert scope["H"].d == 3 and scope["rep"].vu_bound_ok is not None
