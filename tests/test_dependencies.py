import os
import subprocess
import sys
from pathlib import Path

import interfere

# Loaded in a fresh interpreter, so that modules the test run itself imports
# (pytest, scipy) do not hide what the package pulls in.
_PROBE = """
import sys
before = set(sys.modules)
import interfere.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_cli_imports_only_numpy_and_the_standard_library():
    src = str(Path(interfere.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert set(result.stdout.split()) <= {"numpy", "interfere"}
