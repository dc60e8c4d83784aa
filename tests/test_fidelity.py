"""FIDELITY.json — what ``repro fidelity`` printed on this tree — is
held to the registry and to EXPERIMENTS.md.  No simulation runs here:
``benchmarks/test_shapes.py`` and ``repro fidelity`` do that."""

import json
import re
from pathlib import Path

from repro.cli import FIDELITY_SEEDS
from repro.experiments import registry
from repro.experiments.registry import Claim, verdict

REPO_ROOT = Path(__file__).resolve().parents[1]
ROWS = json.loads((REPO_ROOT / "FIDELITY.json").read_text())
SHAPED = {e.id: e for e in registry.discover().values() if e.shape is not None}


def test_one_row_per_claim_bearing_driver_and_seed():
    assert [(row["id"], row["seed"]) for row in ROWS] == [
        (experiment_id, seed)
        for experiment_id in sorted(SHAPED)
        for seed in FIDELITY_SEEDS
    ]


def test_rows_say_what_the_registry_says():
    for row in ROWS:
        experiment = SHAPED[row["id"]]
        assert row["paper"] == experiment.paper, row["id"]
        assert row["scale"] == ("full" if experiment.full else "quick"), row["id"]
        assert len(row["result_sha256"]) == 64
        claims = [Claim(**claim) for claim in row["claims"]]
        assert claims and row["verdict"] == verdict(claims), row["id"]


def test_no_claim_fails_at_the_pinned_seed():
    failed = [
        row["id"] for row in ROWS
        if row["seed"] == FIDELITY_SEEDS[0] and row["verdict"] == "fail"
    ]
    assert failed == []


def test_known_gaps_are_the_ones_experiments_md_lists():
    """Every ``expected: false`` claim is a bullet of EXPERIMENTS.md's
    "Known gaps" section — ``- `id` — *claim text*`` — and vice versa."""
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("## Known gaps", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^- `(\w+)` — \*(.+?)\*", section, flags=re.M))
    in_table = {
        (row["id"], claim["text"])
        for row in ROWS
        for claim in row["claims"]
        if not claim["expected"]
    }
    assert listed == in_table


def test_verdict():
    held = Claim("holds", True)
    missed = Claim("misses", False)
    known_gap = Claim("a known gap", False, expected=False)
    closed_gap = Claim("a known gap that now holds", True, expected=False)
    assert verdict([held, held]) == "pass"
    assert verdict([held, known_gap]) == "qualified"
    assert verdict([held, missed, known_gap]) == "fail"
    # Strict, like an xfail that passes: the gap list must stay true.
    assert verdict([held, closed_gap]) == "fail"
