"""Golden digests: `bench/golden.py` runs `corn gen-data`, `train` and `track`
on fixed seeds, and their outputs must hash to the values below. A change
that alters one of them on purpose updates it here and says why in
CHANGES.md."""

import json
import subprocess
import sys
from pathlib import Path

GOLDEN = {
    "dataset": "becdf88f79e145f1e2a2a43691458a173a38523562f3691618ee8efba636edf0",
    "checkpoint": "cefa9c35476bc9fb6f6406c98cec90b93b0bd5389e840f109346daf710a13baf",
    "track_csv": "af4208dfaf2790cc8a63bc798606a6086c61ac98055f300babeeff65663b517b",
}


def test_golden_digests():
    script = Path(__file__).resolve().parents[1] / "bench" / "golden.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == GOLDEN
