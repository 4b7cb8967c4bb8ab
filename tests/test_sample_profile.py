"""scripts/sample_profile.py samples one pass of a perfbench workload."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROW = re.compile(r"^ *(\d+\.\d)%  (.+):(\d+) (\S+)$")  # a path may hold spaces: <frozen ...>


def test_sample_profile_prints_all_three_tables():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(ROOT / "scripts" / "sample_profile.py"), "--workload", "tiny-grid"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    head, *lines = proc.stdout.splitlines()
    samples = int(re.fullmatch(r"tiny-grid seed 1, 1 pass\(es\): (\d+) samples", head).group(1))
    titles = ["inclusive, per function:", "own, per line:", "own, per innermost bgcsim line:"]
    starts = [i for i, line in enumerate(lines) if line == ""]
    assert [lines[i + 1] for i in starts] == titles
    tables = []
    for start, stop in zip(starts, [*starts[1:], len(lines)]):
        rows = lines[start + 2 : stop]
        parsed = [ROW.match(row) for row in rows]
        assert all(parsed), rows
        shares = [float(match.group(1)) for match in parsed]
        assert len(rows) <= 25 and shares == sorted(shares, reverse=True) and all(0 < s <= 100 for s in shares)
        tables.append({(match.group(2), match.group(4)): share for match, share in zip(parsed, shares)})
    for table in tables[1:]:  # each sample has at most one own line; shares are rounded
        assert sum(table.values()) <= 100 + 0.05 * len(table)
    assert all(path.startswith("bgcsim/") for path, _ in tables[2])
    if samples:  # almost every sample is inside cli.main, so no function holds more of them
        assert all(tables)
        mains = [share for (path, name), share in tables[0].items() if path == "bgcsim/cli.py" and name == "main"]
        assert mains == [max(tables[0].values())]
