"""tools/request_digest.py, the byte-identity check over the benchmark's
requests."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = 5


def _digest() -> list[str]:
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "request_digest.py"),
                           "--workload", "exact_interactive", str(SEED)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def _in_git_checkout() -> bool:
    try:
        return subprocess.run(["git", "rev-parse", "--verify", "HEAD"],
                              cwd=ROOT, capture_output=True).returncode == 0
    except OSError:
        return False


def test_one_clean_line_per_request_and_the_same_lines_twice(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    rids = [req.rid for req in workloads.generate("exact_interactive", SEED, 2)]
    lines = _digest()
    rows = [line.split() for line in lines]
    assert [row[:3] for row in rows] == [["exact_interactive", str(SEED), rid]
                                         for rid in rids]
    assert all(row[3] == "0" and len(row) == 6 for row in rows)
    assert _digest() == lines


def test_differences_pair_each_differing_line(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    # the tool sets sys.dont_write_bytecode on import: restore it afterwards
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    from request_digest import differences

    ref = ["w 1 a 0 x y", "w 1 b 0 x y", "w 1 c 1 x y"]
    new = ["w 1 a 0 x y", "w 1 b 0 z y", "w 1 c 0 x y"]
    assert differences(ref, new) == ["-w 1 b 0 x y", "+w 1 b 0 z y",
                                     "-w 1 c 1 x y", "+w 1 c 0 x y"]
    assert differences(ref, ref) == []
    with pytest.raises(ValueError):
        differences(ref, new[:2])


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout")
def test_against_head_prints_well_formed_pairs():
    # whether this checkout differs from HEAD is not asserted, only the form
    # of what prints and its exit code
    tool = ROOT / "tools" / "request_digest.py"
    proc = subprocess.run([sys.executable, str(tool), "--workload",
                           "exact_interactive", "--against", "HEAD", str(SEED)],
                          cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    assert proc.returncode == (1 if lines else 0)
    assert len(lines) % 2 == 0
    for ref, new in zip(lines[::2], lines[1::2]):
        assert ref[0] == "-" and new[0] == "+"
        ref, new = ref[1:].split(), new[1:].split()
        assert len(ref) == len(new) == 6
        assert ref[:3] == new[:3] and ref != new
