"""What importing drmaj loads: numpy alone; scipy.special at the first closed form."""

import subprocess
import sys
from pathlib import Path

import drmaj

SRC = Path(drmaj.__file__).resolve().parents[1]


def _scipy_loaded_by(code):
    """The scipy modules that ``code`` leaves loaded in a fresh interpreter.

    A fresh one, since this one has loaded scipy for the tests.
    """
    script = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}\n"
        "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_import_loads_no_scipy():
    assert _scipy_loaded_by("import drmaj, drmaj.cli") == []


def test_discrete_pipeline_loads_no_scipy():
    code = """
import numpy as np
import drmaj
rows = np.random.default_rng(0).normal(size=(500, 2))
counts = drmaj.bin_2d(drmaj.Dataset(rows), 6, 6)
q, F = drmaj.discrete_empirical_dr(counts)
t = counts.ravel() / counts.sum()
p = 0.5 * t + 0.5 / t.size  # a mix with the uniform vector lies below t
assert drmaj.majorizes_discrete(p, t) is drmaj.OrderVerdict.PRECEDES
drmaj.dilation_witness(p, t)
for kind in (drmaj.SHANNON, drmaj.EntropyKind.tsallis(2.0)):
    drmaj.entropy_discrete(p, kind)
drmaj.inverse_mix_discrete(p, q.values)
drmaj.direct_mix_discrete(p, q.values)
F(np.arange(40.0))
"""
    assert _scipy_loaded_by(code) == []


def test_first_closed_form_loads_scipy_special():
    loaded = _scipy_loaded_by('import drmaj; drmaj.dr_family("exp:n=1")')
    assert "scipy.special" in loaded
    assert not {"scipy.stats", "scipy.integrate", "scipy.optimize"} & set(loaded)
