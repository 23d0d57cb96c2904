import os
import re
import subprocess
import sys
from pathlib import Path

import seqassign

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_tour_runs():
    # the README's one python block runs as printed, so a stale example
    # fails here instead of misleading its readers
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    src = str(Path(seqassign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run([sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
