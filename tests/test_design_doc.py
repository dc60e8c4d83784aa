"""DESIGN.md's §2 inventory names every package under ``src/repro``."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def inventory_packages():
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 2. System inventory")[1].split("\n## ")[0]
    return set(re.findall(r"\| `(repro\.[a-z_]+)` \|", section))


def test_inventory_names_every_package():
    packages = {
        f"repro.{init.parent.name}"
        for init in (ROOT / "src" / "repro").glob("*/__init__.py")
    }
    documented = inventory_packages()
    assert packages - documented == set(), "missing from DESIGN.md §2"
    assert documented - packages == set(), "DESIGN.md §2 names no package"
