"""scripts/sample_profile.py samples one pass of a perfbench workload."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROW = re.compile(r"^ *(\d+\.\d)%  (.+):(\d+) (\S+)$")  # a path may hold spaces: <frozen ...>


def test_sample_profile_prints_both_tables():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(ROOT / "scripts" / "sample_profile.py"), "--workload", "tiny-grid"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    head, blank, title, *rest = proc.stdout.splitlines()
    samples = int(re.fullmatch(r"tiny-grid seed 1, 1 pass\(es\): (\d+) samples", head).group(1))
    assert (blank, title) == ("", "inclusive, per function:")
    split = rest.index("")
    assert rest[split + 1] == "own, per line:"
    inclusive, own = rest[:split], rest[split + 2 :]
    tables = []
    for rows in (inclusive, own):
        parsed = [ROW.match(row) for row in rows]
        assert all(parsed), rows
        shares = [float(match.group(1)) for match in parsed]
        assert len(rows) <= 25 and shares == sorted(shares, reverse=True) and all(0 < s <= 100 for s in shares)
        tables.append({(match.group(2), match.group(4)): share for match, share in zip(parsed, shares)})
    assert sum(tables[1].values()) <= 100 + 0.05 * len(own)  # each sample has one own line; shares are rounded
    if samples:  # almost every sample is inside cli.main, so no function holds more of them
        assert len(tables[0]) and len(tables[1])
        mains = [share for (path, name), share in tables[0].items() if path == "bgcsim/cli.py" and name == "main"]
        assert mains == [max(tables[0].values())]
