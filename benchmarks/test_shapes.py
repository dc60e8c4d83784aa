"""The paper's claims, one test per claim-bearing driver.

Each driver in ``repro.experiments`` states what its figure or table
reports as ``shape(result) -> [Claim]`` (absolute numbers are not
claimed: the substrate is a simulator, not the authors' testbed — see
EXPERIMENTS.md).  A test runs the driver once at seed 3, at the scale
its claims are made at, and fails on a ``fail`` verdict: a claim that
misses, or a known gap that closed without EXPERIMENTS.md being told.

    pytest benchmarks/test_shapes.py -k "tab01 or fig14" -s

``repro experiment <id>`` judges the same claims on the command line;
``repro fidelity`` judges them all at two seeds (FIDELITY.json).
"""

import pytest

from repro.experiments import registry

SHAPED = [e for e in registry.discover().values() if e.shape is not None]


@pytest.mark.parametrize("experiment", SHAPED, ids=lambda e: e.id)
def test_shape(experiment):
    claims = experiment.shape(experiment.run(quick=not experiment.full))
    for claim in claims:
        print(f"{'holds' if claim.holds else 'misses':6} {claim.text}")
    unexpected = [c.text for c in claims if c.holds != c.expected]
    assert registry.verdict(claims) != "fail", unexpected
