"""The library quick start of README.md and PAPER.md runs as printed: each
line that ends in `# value` shows the repr of its expression."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _quick_start(name: str) -> list[str]:
    text = (ROOT / name).read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


@pytest.mark.parametrize("name", ["README.md", "PAPER.md"])
def test_quick_start_shows_the_values_it_computes(name):
    namespace, shown = {}, 0
    for line in _quick_start(name):
        code, _, value = line.partition("  # ")
        if value:
            assert repr(eval(code, namespace)) == value.strip(), line
            shown += 1
        else:
            exec(line, namespace)
    assert shown == 2
