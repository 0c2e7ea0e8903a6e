"""tools/code_lines.py, the package's code-line count."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines",
                                               ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves a code line


class Box:
    """Class docstring."""

    side = 1

    def area(self):
        """Function docstring,
        over two lines."""
        # a comment line
        return (self.side
                * self.side)


async def fetch():
    """Coroutine docstring."""
    text = """a string that
    is no docstring"""
    return text
'''


def test_only_code_lines_count():
    # import, class, side, def, return over two lines, async def,
    # the two-line string assignment and its return
    assert code_lines.code_lines(_FIXTURE) == 10


def test_module_counts_sum_to_the_total(capsys):
    assert code_lines.main(["code_lines.py", str(ROOT / "src" / "patrolgeom")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    *modules, (label, total) = rows
    assert label == "total"
    assert {name for name, _ in modules} == {
        path.name for path in (ROOT / "src" / "patrolgeom").glob("*.py")}
    assert sum(int(count) for _, count in modules) == int(total) > 0


def test_no_source_line_exceeds_88_characters():
    paths = [path for folder in ("src/patrolgeom", "tools", "tests")
             for path in sorted((ROOT / folder).glob("*.py"))]
    assert paths
    overlong = [f"{path.relative_to(ROOT)}:{number}"
                for path in paths
                for number, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), 1)
                if len(line) > 88]
    assert overlong == []
