import os
import subprocess
import sys
from pathlib import Path

import eprnet

TEST_ONLY = ("scipy", "networkx", "hypothesis", "pytest")


def test_runtime_imports_need_only_numpy():
    # numpy is the only declared runtime dependency; the oracles' scipy
    # and networkx, and the test tools, must never be pulled in by the
    # library itself.
    src = str(Path(eprnet.__file__).resolve().parents[1])
    code = (
        "import sys; import eprnet, eprnet.cli, eprnet.harness; "
        f"print(sorted(m for m in {TEST_ONLY!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
