"""What importing drmaj loads: numpy and scipy.special, not the heavy scipy subpackages."""

import subprocess
import sys
from pathlib import Path

import drmaj

SRC = Path(drmaj.__file__).resolve().parents[1]


def test_import_skips_scipy_stats_integrate_and_optimize():
    # a fresh interpreter, since this one has loaded them for the tests
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import drmaj, drmaj.cli; "
        "print(' '.join(m for m in ('scipy.stats', 'scipy.integrate', 'scipy.optimize') "
        "if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
