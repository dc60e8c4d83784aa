"""DESIGN.md held to the tree: §2's inventory names every package under
``src/repro``, §4's package map lists every module and nothing else, and
every protocol constant the document quotes is the number the code runs
with."""

import re
from fnmatch import fnmatch
from pathlib import Path

import pytest

from repro.baselines import enhanced_80211r
from repro.baselines.enhanced_80211r import stock_80211r_config
from repro.channel.fading import DOPPLER_FLOOR_HZ
from repro.core.access_point import NIC_DRAIN_US
from repro.core.config import WgttConfig
from repro.core.controller import SELECTION_PERIOD_US
from repro.core.selection import SELECTION_WINDOW_US
from repro.core.switching import SWITCH_TIMEOUT_US
from repro.mac.frames import MAX_AMPDU_AIRTIME_US, MAX_AMPDU_SUBFRAMES
from repro.mac.wifi_device import BEACON_INTERVAL_US
from repro.scenarios.testbed import AP_BEAMWIDTH_DEG
from repro.sim.engine import MS, SECOND

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


def package_map():
    """§4's map as ``{directory: [file patterns]}`` (``""`` is
    ``src/repro`` itself); parenthesised notes are dropped.  An entry
    starts at the map's indent with its directory, continuation lines
    sit deeper."""
    text = (ROOT / "DESIGN.md").read_text()
    block = text.split("## 4. Package map")[1].split("```")[1]
    listed = {}
    directory = None
    for line in block.splitlines():
        tokens = re.sub(r"\([^)]*\)", "", line).split()
        if not tokens or not line.startswith(" "):
            continue  # blank, or the ``src/repro/`` root line
        if not line.startswith("   "):
            directory = tokens.pop(0) if tokens[0].endswith("/") else ""
        listed.setdefault(directory, []).extend(tokens)
    return listed


def test_package_map_lists_every_module():
    src = ROOT / "src" / "repro"
    tree = {}
    for path in src.rglob("*.py"):
        if path.name != "__init__.py":
            parent = path.parent.relative_to(src).as_posix()
            directory = "" if parent == "." else f"{parent}/"
            tree.setdefault(directory, set()).add(path.name)
    listed = package_map()
    assert set(tree) - set(listed) == set(), "directories missing from §4"
    assert set(listed) - set(tree) == set(), "§4 names no such directory"
    for directory, patterns in sorted(listed.items()):
        files = tree[directory]
        for pattern in patterns:
            assert any(fnmatch(name, pattern) for name in files), (
                f"DESIGN.md §4 lists {directory}{pattern}: not in the tree"
            )
        unlisted = {
            name
            for name in files
            if not any(fnmatch(name, pattern) for pattern in patterns)
        }
        assert unlisted == set(), f"missing from DESIGN.md §4: {directory}"


_WGTT = WgttConfig()

#: name -> (pattern capturing the number DESIGN.md quotes, the tree's
#: value in the unit the document uses).  Every match must agree.
QUOTED_CONSTANTS = {
    "selection window W": (r"W = (\d+) ms", SELECTION_WINDOW_US / MS),
    "selection period": (
        r"Periodic controller selection \((\d+) ms\)", SELECTION_PERIOD_US / MS
    ),
    "WGTT time hysteresis": (
        r"(\d+) ms time hysteresis", _WGTT.time_hysteresis_us / MS
    ),
    "switch retransmit": (r"(\d+) ms retransmit", SWITCH_TIMEOUT_US / MS),
    "index width": (r"(\d+)-bit (?:packet )?index", _WGTT.index_bits),
    "NIC drain": (r"(\d+) ms NIC", NIC_DRAIN_US / MS),
    "baseline beacons": (r"(\d+) ms beacons", BEACON_INTERVAL_US / MS),
    "baseline hysteresis": (
        r"(\d+) s (?:time )?hysteresis",
        enhanced_80211r.TIME_HYSTERESIS_US / SECOND,
    ),
    "stock 802.11r history": (
        r"\((\d+) s RSSI history\)",
        stock_80211r_config().min_history_us / SECOND,
    ),
    "effective beamwidth": (
        r"Effective beamwidth (\d+)°", AP_BEAMWIDTH_DEG
    ),
    "A-MPDU subframes": (
        r"`MAX_AMPDU_SUBFRAMES` = (\d+)", MAX_AMPDU_SUBFRAMES
    ),
    "A-MPDU airtime": (
        r"`MAX_AMPDU_AIRTIME_US` = (\d+) ms", MAX_AMPDU_AIRTIME_US / MS
    ),    "Doppler floor": (r"(\d+) Hz Doppler floor", DOPPLER_FLOOR_HZ),
}


@pytest.mark.parametrize("name", sorted(QUOTED_CONSTANTS))
def test_quoted_constant_matches_the_tree(name):
    pattern, live = QUOTED_CONSTANTS[name]
    text = " ".join((ROOT / "DESIGN.md").read_text().split())
    quoted = [float(number) for number in re.findall(pattern, text)]
    assert quoted, f"DESIGN.md no longer quotes the {name}"
    assert set(quoted) == {live}, f"DESIGN.md quotes {quoted}, tree has {live}"
