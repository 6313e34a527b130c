"""The environment variables the code reads are the ones docs/tuning.md lists.

A knob added to (or removed from) ``src/repro`` without touching the
docs/tuning.md section 6 table — or the other way round — fails here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV_NAME = re.compile(r"REPRO_[A-Z_]+")


def _env_literals_in_source() -> set[str]:
    """String literals under ``src/repro`` that are exactly an env name."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and ENV_NAME.fullmatch(node.value)):
                names.add(node.value)
    return names


def _env_rows_in_tuning_doc() -> set[str]:
    text = (ROOT / "docs" / "tuning.md").read_text(encoding="utf-8")
    section = text.split("## 6. Runtime environment variables")[1]
    section = section.split("\n## ")[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.MULTILINE))


def test_env_variables_match_tuning_table():
    documented = _env_rows_in_tuning_doc()
    assert _env_literals_in_source() == documented
    assert documented == {
        "REPRO_PARALLEL_BACKEND",
        "REPRO_PARALLEL_WORKERS",
        "REPRO_DTYPE",
    }
