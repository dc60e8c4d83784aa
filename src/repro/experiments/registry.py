"""Experiment registry: one :func:`register` row per driver.

Every driver module ends with its row::

    register(
        "fig13", "throughput vs speed, both schemes", run,
        shape=shape, paper="WGTT roughly flat … gain 2.4-4.7x TCP",
    )

and the CLI, ``benchmarks/test_shapes.py`` and ``repro fidelity`` read
ids, entry points and the paper's claims from here (:func:`discover`
imports every ``repro.experiments`` submodule once so the rows exist).
Every ``run`` has the one signature ``run(seed, quick, jobs) -> dict``;
a gate's ``smoke`` is ``smoke(seed) -> dict``.

``shape(result)`` states what the paper reports as a list of
:class:`Claim`; :func:`verdict` folds them into pass / qualified / fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

__all__ = [
    "Claim", "Experiment", "verdict", "register",
    "discover", "get", "experiment_ids", "descriptions",
]


@dataclass(frozen=True)
class Claim:
    """One thing the paper reports, judged on a driver's result."""

    text: str
    holds: bool
    #: ``False`` marks a trend the paper reports and we are known not to
    #: reproduce (EXPERIMENTS.md "Known gaps").
    expected: bool = True


def verdict(claims: Iterable[Claim]) -> str:
    """``pass``, ``qualified`` (only known gaps miss) or ``fail``.

    A known gap that unexpectedly *holds* is a ``fail`` too, like a
    strict xfail: the list of gaps has to be kept true.
    """
    claims = list(claims)
    if any(claim.holds != claim.expected for claim in claims):
        return "fail"
    return "pass" if all(claim.expected for claim in claims) else "qualified"


@dataclass(frozen=True)
class Experiment:
    """One registered driver."""

    id: str
    description: str
    #: ``run(seed, quick, jobs) -> dict``
    run: Callable[..., Dict]
    #: The CI gate variant, ``smoke(seed) -> dict`` with an ``ok`` key.
    smoke: Optional[Callable[..., Dict]] = None
    #: The paper's claims about ``run``'s result.
    shape: Optional[Callable[[Dict], List[Claim]]] = None
    #: What the paper reports, in one sentence.
    paper: str = ""
    #: The claims are made on the ``--full`` sweep, not the quick one.
    full: bool = False


_REGISTRY: Dict[str, Experiment] = {}
_DISCOVERED = False


def register(
    experiment_id: str, description: str, run: Callable[..., Dict], **row
) -> None:
    """File ``run`` as experiment ``experiment_id`` (see :class:`Experiment`)."""
    existing = _REGISTRY.get(experiment_id)
    if existing is not None and existing.run is not run:
        raise ValueError(
            f"experiment id {experiment_id!r} registered twice "
            f"({existing.run.__module__} and {run.__module__})"
        )
    _REGISTRY[experiment_id] = Experiment(experiment_id, description, run, **row)


#: Submodules of repro.experiments that are infrastructure, not drivers.
_NON_DRIVER_MODULES = frozenset({"common", "runner", "registry"})


def discover() -> Dict[str, Experiment]:
    """Import every driver module once; return the filled registry."""
    global _DISCOVERED
    if not _DISCOVERED:
        import importlib
        import pkgutil

        import repro.experiments as package

        for info in sorted(
            pkgutil.iter_modules(package.__path__), key=lambda i: i.name
        ):
            if info.name in _NON_DRIVER_MODULES or info.name.startswith("_"):
                continue
            importlib.import_module(f"repro.experiments.{info.name}")
        _DISCOVERED = True
    return dict(_REGISTRY)


def get(experiment_id: str) -> Experiment:
    registry = discover()
    try:
        return registry[experiment_id]
    except KeyError:
        raise KeyError(f"unknown experiment {experiment_id!r}") from None


def experiment_ids() -> List[str]:
    return sorted(discover())


def descriptions() -> Dict[str, str]:
    """id -> description for every registered experiment (sorted)."""
    registry = discover()
    return {
        experiment_id: registry[experiment_id].description
        for experiment_id in sorted(registry)
    }
