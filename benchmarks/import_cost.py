"""Import cost of each entry point, as a Markdown table.

The entry points are ``ENTRIES`` of ``tests/test_import_layering.py``,
which also pins what each one may load.  Every entry point is loaded in
fresh interpreters: one run reads the peak RSS, the number of modules in
``sys.modules`` and the wall time of the import, one run under
``-X importtime`` sums the self time of every module imported.  Each
cell is the median of ``REPEAT`` such pairs.  Run from the repository
root::

    PYTHONPATH=src python benchmarks/import_cost.py
"""

from __future__ import annotations

import importlib.util
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

#: Fresh interpreter pairs per entry point; the table gives medians.
REPEAT = 5

LAYERING = (Path(__file__).resolve().parents[1] / "tests"
            / "test_import_layering.py")

# The peak RSS is the process's own high-water mark, ``VmHWM``: after a
# fork ``ru_maxrss`` starts from the parent's peak.
PROBE = """\
import json, re, sys, time
t0 = time.perf_counter()
{code}
seconds = time.perf_counter() - t0
with open("/proc/self/status") as status:
    hwm_kib = int(re.search(r"VmHWM:\\s+(\\d+) kB", status.read()).group(1))
print(json.dumps({{
    "peak_rss_mib": hwm_kib / 1024,
    "modules": len(sys.modules),
    "repro_modules": sum(m.startswith("repro") for m in sys.modules),
    "import_s": seconds,
}}))
"""

IMPORTTIME = re.compile(r"import time:\s+(\d+) \|")


def entries() -> dict[str, str]:
    """Entry point -> the code that loads it, from the layering test."""
    spec = importlib.util.spec_from_file_location("import_layering", LAYERING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRIES


def measure(code: str) -> dict:
    """One fresh interpreter per figure set."""
    probe = PROBE.format(code=code)
    run = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True)
    row = json.loads(run.stdout.splitlines()[-1])
    timed = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import sys\n" + code],
        check=True, capture_output=True, text=True)
    row["importtime_s"] = 1e-6 * sum(
        int(m.group(1)) for m in IMPORTTIME.finditer(timed.stderr))
    return row


def main() -> int:
    print("| entry point | peak RSS at import (MiB) | modules (`repro.*`) "
          "| import (s) | `-X importtime` total (s) |")
    print("|---|---:|---:|---:|---:|")
    for name, code in entries().items():
        rows = [measure(code) for _ in range(REPEAT)]
        med = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        print(f"| `{name}` | {med['peak_rss_mib']:.1f} | {med['modules']:.0f} "
              f"({med['repro_modules']:.0f}) | {med['import_s']:.3f} "
              f"| {med['importtime_s']:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
