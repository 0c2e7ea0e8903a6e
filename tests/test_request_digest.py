"""tools/request_digest.py, the byte-identity check over the benchmark's
requests."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 5


def _digest() -> list[str]:
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "request_digest.py"),
                           "--workload", "exact_interactive", str(SEED)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


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
