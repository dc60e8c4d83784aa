"""Smoke contract of the perf ledger.

Not part of tier-1 (``testpaths = ["tests"]``); run it explicitly::

    python -m pytest benchmarks/ledger/test_ledger.py

Two whole-ledger runs at ``--scale 0.05`` (about a minute each).  At
that scale some cells are too short to complete a switch, so the
reports' own pass/fail is not asserted here -- only that the ledger
reports what ``BENCHMARK.json`` declares and that everything which is
not host time repeats exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
LEDGER = os.path.join(HERE, "ledger.py")

sys.path.insert(0, HERE)
from ledger import is_host_timed  # noqa: E402


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> list:
    out = []
    for tag in ("a", "b"):
        path = tmp_path_factory.mktemp("ledger") / f"{tag}.json"
        subprocess.run(
            [sys.executable, LEDGER, "run", "--scale", "0.05", "--output", str(path)],
            check=False, capture_output=True, timeout=900,
        )
        with open(path) as fh:
            out.append((str(path), json.load(fh)))
    return out


def test_report_is_marked_scaled(reports):
    for _, report in reports:
        assert report["scaled"] is True
        assert {"nproc", "loadavg", "python", "numpy"} <= set(report["header"])


def test_every_declared_metric_is_reported_with_its_unit(spec, reports):
    _, report = reports[0]
    assert list(report["workloads"]) == [w["name"] for w in spec["workloads"]]
    for entry in report["workloads"].values():
        for block in ("end_to_end", "per_layer"):
            for declared in spec[block]:
                got = entry[block][declared["name"]]
                assert got["unit"] == declared["unit"], declared["name"]
                assert isinstance(got["value"], (int, float))
            assert len(entry[block]) == len(spec[block])


def test_layer_shares_sum_to_one(reports):
    for _, report in reports:
        for name, entry in report["workloads"].items():
            total = sum(
                cell["value"]
                for metric, cell in entry["per_layer"].items()
                if metric.endswith(".self_share")
            )
            assert total == pytest.approx(1.0, abs=1e-6), name


def test_counts_simulated_metrics_and_digests_repeat(reports):
    (_, a), (_, b) = reports
    for name, in_a in a["workloads"].items():
        in_b = b["workloads"][name]
        assert in_a["result_digest"] == in_b["result_digest"], name
        for block in ("end_to_end", "per_layer"):
            for metric, cell in in_a[block].items():
                if not is_host_timed(metric):
                    assert cell["value"] == in_b[block][metric]["value"], (
                        name, metric,
                    )


def test_compare_of_a_report_with_itself_flags_nothing(reports):
    path, _ = reports[0]
    done = subprocess.run(
        [sys.executable, LEDGER, "compare", path, path],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    assert "0 flagged" in done.stdout
