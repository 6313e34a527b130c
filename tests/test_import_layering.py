"""Import hygiene: ``repro.lbm`` pulls in no upper layer, and ``import
repro`` pulls in no heavy dependency only one call needs."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages that sit above the lattice solver (they import it).
UPPER_LAYERS = ("repro.membrane", "repro.ibm", "repro.fsi", "repro.parallel")

# ``repro/__init__.py`` re-exports the public API and so imports every
# layer; a bare namespace stands in for it so that what lands in
# ``sys.modules`` is the import closure of ``repro.lbm`` alone.
PROBE = f"""
import sys, types
root = types.ModuleType("repro")
root.__path__ = [{str(SRC / "repro")!r}]
sys.modules["repro"] = root
import repro.lbm
print("\\n".join(sorted(m for m in sys.modules if m.startswith("repro."))))
"""


def test_lbm_imports_no_upper_layer():
    out = subprocess.run(
        [sys.executable, "-c", PROBE], check=True, capture_output=True,
        text=True,
    ).stdout.split()
    assert "repro.lbm.solver" in out
    pulled = [m for m in out if m.startswith(UPPER_LAYERS)]
    assert pulled == [], f"repro.lbm imports upper layers: {pulled}"


def test_import_repro_does_not_load_scipy_optimize():
    """Only ``discharge_from_tube_hematocrit`` needs it (one ``brentq``)."""
    probe = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import repro; "
             "print('scipy.optimize' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True,
    ).stdout.strip()
    assert out == "False"
