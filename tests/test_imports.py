"""What importing drmaj loads (numpy alone; scipy.special at the first closed form) and exports."""

import subprocess
import sys
from pathlib import Path

import drmaj

SRC = Path(drmaj.__file__).resolve().parents[1]


def _printed_by(code):
    """The words that ``code`` prints in a fresh interpreter.

    A fresh one, since this one has loaded scipy and more of drmaj for the tests.
    """
    script = f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    return out.stdout.split()


def _scipy_loaded_by(code):
    """The scipy modules that ``code`` leaves loaded in a fresh interpreter."""
    return _printed_by(
        f"{code}\nprint(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )


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


def test_exports_are_the_submodules_all():
    # every public name of drmaj is a submodule, __version__, or in a submodule's __all__
    code = """
import types
import drmaj
public = {n for n in vars(drmaj) if not n.startswith("_") or n == "__version__"}
modules = {n for n in public if isinstance(getattr(drmaj, n), types.ModuleType)}
listed = set().union(*(getattr(drmaj, m).__all__ for m in modules))
print(" ".join(sorted(public ^ (listed | modules | {"__version__"}))))
print("modules:", " ".join(sorted(modules)))
"""
    out = _printed_by(code)
    split = out.index("modules:")
    assert out[:split] == []
    assert out[split + 1 :] == ["algebra", "empirical", "entropy", "families", "order", "rearrange"]
