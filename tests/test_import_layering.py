"""Import hygiene: each entry point loads only the layers it uses.

Package roots bind their public names on first access (``repro._lazy``),
so importing a module pulls in its own imports and nothing that a sibling
re-exported.  Every probe runs in a fresh interpreter, since this test
process has long since imported everything.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages that sit above the lattice solver (they import it).
UPPER_LAYERS = ("repro.membrane", "repro.ibm", "repro.fsi", "repro.parallel")

#: Entry point -> the code that loads it in a fresh interpreter (with
#: ``sys`` imported).  ``benchmarks/import_cost.py`` measures this table.
ENTRIES = {
    "repro.lbm.solver": "import repro.lbm.solver",
    "repro.experiments.tube_window": "import repro.experiments.tube_window",
    "repro.experiments.expanding_channel":
        "import repro.experiments.expanding_channel",
    "repro.experiments.vessel_tree": "import repro.experiments.vessel_tree",
    # The CLI start-up every subcommand pays.
    "python -m repro --help": (
        "import runpy\nsys.argv = ['repro', '--help']\n"
        "try:\n    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit:\n    pass"
    ),
}

#: What a cell-laden run never loads, stepping included: the contact
#: pairs come from the repo's own grid, csgraph serves only the RCM
#: vertex reordering, and the cell side steps inline (the process pool
#: serves only the decomposed lattice).
CELL_RUN_FORBIDDEN = (
    "scipy.spatial", "scipy.sparse.csgraph", "scipy.linalg", "scipy.special",
    "multiprocessing", "repro.parallel.pool",
)

#: Entry point -> what it must not load (packages, with their submodules).
FORBIDDEN = {
    "repro.lbm.solver": (
        "scipy", "networkx", "http.server", "repro.fsi", "repro.membrane",
        "repro.ibm", "repro.core",
    ),
    "repro.experiments.tube_window": ("networkx", *CELL_RUN_FORBIDDEN),
    "repro.experiments.expanding_channel": ("networkx", *CELL_RUN_FORBIDDEN),
    # the tree is a networkx graph
    "repro.experiments.vessel_tree": CELL_RUN_FORBIDDEN,
    # no subcommand picks a lattice backend any more
    "python -m repro --help": ("scipy", "multiprocessing", "repro.parallel"),
}


def _run(code: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
         + code],
        check=True, capture_output=True, text=True,
    ).stdout


def loaded_by(entry: str) -> set[str]:
    """``sys.modules`` after loading ``entry`` (an :data:`ENTRIES` key or
    any module name)."""
    code = ENTRIES.get(entry, f"import {entry}")
    out = _run(code + "\nprint('--modules--', *sys.modules)")
    return set(out.rsplit("--modules--", 1)[1].split())


def _within(modules, packages) -> list[str]:
    return sorted(
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in packages)
    )


def test_lbm_imports_no_upper_layer():
    probe = ("import pkgutil, repro.lbm\n"
             "for info in pkgutil.iter_modules(repro.lbm.__path__):\n"
             "    __import__('repro.lbm.' + info.name)\n"
             "print('\\n'.join(sys.modules))")
    out = _run(probe).split()
    assert "repro.lbm.solver" in out
    pulled = _within(out, UPPER_LAYERS)
    assert pulled == [], f"repro.lbm imports upper layers: {pulled}"


def test_import_repro_does_not_load_scipy_optimize():
    assert "scipy.optimize" not in loaded_by("repro")


@pytest.mark.parametrize("entry", sorted(FORBIDDEN))
def test_entry_point_loads_only_what_it_uses(entry):
    pulled = _within(loaded_by(entry), FORBIDDEN[entry])
    assert pulled == [], f"{entry} loads {pulled}"


def test_cell_laden_steps_load_nothing_more(tmp_path):
    """A lazy import inside the step would slip past the import probes:
    run both cell-laden drivers a step or two, then look again."""
    probe = ("import os, warnings\n"
             f"os.chdir({str(tmp_path)!r})\n"
             "warnings.simplefilter('ignore')\n"
             "from repro.experiments.tube_window import run_tube_window\n"
             "from repro.experiments.expanding_channel import (\n"
             "    run_expanding_channel_efsi)\n"
             "run_tube_window(steps=2)\n"
             "run_expanding_channel_efsi(steps=1)\n"
             "print('--modules--', *sys.modules)")
    out = _run(probe)
    pulled = _within(out.rsplit("--modules--", 1)[1].split(),
                     CELL_RUN_FORBIDDEN)
    assert pulled == [], f"stepping a cell-laden run loads {pulled}"


@pytest.mark.parametrize("package", ["repro", "repro.parallel"])
def test_lazy_root_names_resolve_and_are_listed(package):
    probe = (f"import importlib, json, types\n"
             f"pkg = importlib.import_module({package!r})\n"
             "listed = set(dir(pkg))\n"
             "print(json.dumps({\n"
             "    'all': list(pkg.__all__),\n"
             "    'unlisted': [n for n in pkg.__all__ if n not in listed],\n"
             "    'unresolved': [n for n in pkg.__all__\n"
             "                   if getattr(pkg, n, None) is None],\n"
             "    'core': isinstance(getattr(pkg, 'core', None),\n"
             "                       types.ModuleType),\n"
             "}))")
    report = json.loads(_run(probe))
    assert report["all"]
    assert report["unlisted"] == []
    assert report["unresolved"] == []
    if package == "repro":
        # ``repro.core`` is an attribute right after a bare ``import repro``.
        assert report["core"]


def test_lazy_root_rejects_unknown_names():
    import repro

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        repro.no_such_name  # noqa: B018
    assert not hasattr(repro.parallel, "no_such_name")
