"""Deterministic fault injection for the WGTT testbed.

``repro.faults`` turns the simulator into a chaos rig: a
:class:`FaultPlan` is a declarative, seed-reproducible schedule of
faults (AP crash/restart, backhaul partition/heal, per-link delay
jitter with reordering, CSI-report suppression, controller kills), and
a :class:`FaultInjector` arms a plan against a built testbed, executing
each fault on the discrete-event engine and logging an exact trace.

The message-level *adversary* events (:class:`MsgDuplication`,
:class:`StaleReplay`, :class:`MsgCorruption`, :class:`OneWayPartition`,
:class:`GrayFailure`) attack the backhaul the way a sick switch fabric
does — duplicated, replayed, corrupted and asymmetrically dropped
control traffic, plus gray APs that heartbeat while their data path
rots.  They pair with the runtime safety monitors in
:mod:`repro.invariants`.

Determinism contract: every random draw a plan makes comes from named
``RngRegistry`` streams (``faults/...``), so identical seeds yield
identical fault traces — and the injector only draws at execution time
from streams whose labels are derived from plan fields, so two runs of
the same (seed, plan) pair produce byte-identical event logs and
byte-identical protocol behaviour.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FAULT_CLASSES,
    ApCrash,
    ControllerCrash,
    CsiBlackout,
    FaultPlan,
    GrayFailure,
    LinkJitter,
    MsgCorruption,
    MsgDuplication,
    OneWayPartition,
    Partition,
    StaleReplay,
)

__all__ = [
    "FAULT_CLASSES",
    "ApCrash",
    "ControllerCrash",
    "CsiBlackout",
    "FaultInjector",
    "FaultPlan",
    "GrayFailure",
    "LinkJitter",
    "MsgCorruption",
    "MsgDuplication",
    "OneWayPartition",
    "Partition",
    "StaleReplay",
]
