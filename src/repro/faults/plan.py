"""Declarative, seed-reproducible fault schedules.

A :class:`FaultPlan` is a plain container of fault *events* — frozen
dataclasses describing **what** goes wrong and **when** (all times in
integer sim microseconds).  Plans are data: they can be written by
hand for unit rigs, or drawn from named :class:`~repro.sim.rng.RngRegistry`
streams via :meth:`FaultPlan.random` for chaos sweeps.  Either way the
plan is fully determined before the simulation starts; the injector
(:mod:`repro.faults.injector`) never draws randomness at execution
time, which is what makes two runs of the same ``(seed, plan)`` pair
byte-identical.

Everything particular to one fault kind lives on its event class:
fields and validation, identity (``subject``), ``describe()`` text,
the ids it names, how :meth:`FaultPlan.random` draws one (``stream``,
``drawn``, ``draw``) and how the injector opens and closes it
(``actions``, ``open``, ``close``).  :data:`FAULT_CLASSES` lists the
kinds; the process and chaos faults come first, then the five
message-level (Jepsen-style) adversary kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    ClassVar,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from repro.sim.rng import RngRegistry


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


#: Message-class targets :meth:`FaultPlan.random` picks between when
#: drawing duplication/replay adversary events: everything, the
#: switch handshake, the replication/takeover control plane, and the
#: data path.  Kept small and named so a plan's ``describe()`` output
#: reads as intent, not noise.
ADVERSARY_KIND_GROUPS: Tuple[Optional[FrozenSet[str]], ...] = (
    None,
    frozenset({"stop", "start", "ack", "failover"}),
    frozenset({"sta-sync", "serving-update", "ctrl-takeover"}),
    frozenset({"uplink", "data"}),
)


@dataclass
class _Targets:
    """What a drawn event may aim at, and the ``.../choice`` stream
    every target draw of its family comes from."""

    pick: np.random.Generator
    ap_ids: List[str]
    controller_id: str

    def ap(self) -> str:
        return self.ap_ids[int(self.pick.integers(0, len(self.ap_ids)))]


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.  ``rig`` below is the arming
    :class:`~repro.faults.injector.FaultInjector`."""

    at_us: int

    #: Message-level adversary kind (vs process / chaos fault).
    adversary: ClassVar[bool] = False
    #: What the kind aims at (docs/robustness.md's "acts on" column).
    acts_on: ClassVar[str]
    #: rng family: :meth:`FaultPlan.random` draws arrivals from
    #: ``faults/<stream>`` and targets from ``faults/<stream>/choice``;
    #: an open window draws from ``faults/<stream>/<subject>@<at_us>``.
    #: It is also the backhaul's name for a window kind (``open_fault``).
    stream: ClassVar[str]
    #: Field values of a *drawn* event, where they differ from the
    #: class defaults a hand-written one gets.
    drawn: ClassVar[Mapping[str, object]] = {}
    #: What the injector logs when the fault opens and when it closes.
    actions: ClassVar[Tuple[str, str]]
    #: Whether two windows of this kind on one subject may not overlap.
    exclusive: ClassVar[bool] = False

    def __post_init__(self) -> None:
        _require(self.at_us >= 0, "at_us must be non-negative")

    @property
    def subject(self) -> str:
        """Who the fault hits: its identity in the sort order, the
        injector's log and its execution-time stream label."""
        raise NotImplementedError

    @property
    def lasts_us(self) -> Optional[int]:
        """How long after opening the injector closes it (never: None)."""
        return None

    def describe(self) -> str:
        raise NotImplementedError

    def names(self) -> Iterable[Tuple[str, str]]:
        """``(what, id)`` for every "AP", "controller" or "backhaul
        node" the event addresses; checked when the plan is armed."""
        return ()

    @classmethod
    def draw(cls, at_us: int, targets: _Targets, **fields) -> "FaultEvent":
        """A random event at ``at_us``: this is the kind's target choice."""
        raise NotImplementedError

    def open(self, rig) -> object:
        """Inject the fault, logging ``actions[0]``.  The handle goes
        to :meth:`close`; ``None`` means nothing happened (the target
        was already in that state), so there is nothing to close."""
        raise NotImplementedError

    def close(self, rig, handle: object) -> None:
        """Undo :meth:`open`, logging ``actions[1]``."""


# ----------------------------------------------------------------------
# what a kind aims at
# ----------------------------------------------------------------------


class _OnAp(FaultEvent):
    acts_on = "AP"
    ap_id: str

    @property
    def subject(self) -> str:
        return self.ap_id

    def names(self):
        return [("AP", self.ap_id)]

    def node(self, rig):
        return rig.aps[self.ap_id]

    @classmethod
    def draw(cls, at_us, targets, **fields):
        return cls(at_us=at_us, ap_id=targets.ap(), **fields)


class _OnController(FaultEvent):
    acts_on = "controller"
    controller_id: str

    @property
    def subject(self) -> str:
        return self.controller_id

    def names(self):
        return [("controller", self.controller_id)]

    def node(self, rig):
        return rig.controllers[self.controller_id]

    @classmethod
    def draw(cls, at_us, targets, **fields):
        return cls(at_us=at_us, controller_id=targets.controller_id, **fields)


class _OnLink(FaultEvent):
    acts_on = "directed backhaul link"
    src: str
    dst: str

    @property
    def subject(self) -> str:
        return f"{self.src}->{self.dst}"

    def names(self):
        return [("backhaul node", self.src), ("backhaul node", self.dst)]


class _OnKinds(FaultEvent):
    acts_on = "message kinds"
    adversary = True
    kinds: Optional[FrozenSet[str]]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kinds is not None:
            _require(bool(self.kinds), "kinds must be non-empty (or None)")
            object.__setattr__(self, "kinds", frozenset(self.kinds))

    @property
    def subject(self) -> str:
        return "any" if self.kinds is None else ",".join(sorted(self.kinds))

    @classmethod
    def draw(cls, at_us, targets, **fields):
        group = int(targets.pick.integers(0, len(ADVERSARY_KIND_GROUPS)))
        return cls(at_us=at_us, kinds=ADVERSARY_KIND_GROUPS[group], **fields)


# ----------------------------------------------------------------------
# how a kind opens and closes
# ----------------------------------------------------------------------


def _set_alive(event, rig, alive: bool, action: str) -> Optional[bool]:
    """Restart (``alive``) or crash the event's node, unless it is
    already there (overlapping crash events)."""
    node = event.node(rig)
    if getattr(node, "alive", True) == alive:
        return None
    rig.log(action, event.subject)
    if alive:
        node.restart()
    else:
        node.crash()
    return True


class _Crash(FaultEvent):
    """A process dies; ``down_us`` later (unless ``None``) it restarts."""

    down_us: Optional[int]

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            self.down_us is None or self.down_us > 0,
            "down_us must be positive (or None)",
        )

    @property
    def lasts_us(self) -> Optional[int]:
        return self.down_us

    def describe(self) -> str:
        back = f"restart +{self.down_us}us" if self.down_us else "no restart"
        return f"{self.actions[0]} {self.subject} ({back})"

    def open(self, rig):
        return _set_alive(self, rig, False, self.actions[0])

    def close(self, rig, handle) -> None:
        _set_alive(self, rig, True, self.actions[1])


@dataclass(frozen=True)
class _Window(FaultEvent):
    """A fault that holds for ``duration_us``."""

    duration_us: int

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.duration_us > 0, "duration_us must be positive")

    @property
    def lasts_us(self) -> int:
        return self.duration_us


class _BackhaulWindow(_Window):
    """A window on :meth:`EthernetBackhaul.open_fault`'s table: while
    it is open, ``send()`` reads the event's own fields."""

    #: Whether an open window draws per message.  Its stream's label
    #: is the event's own plan fields, so execution-time draws stay
    #: inside the determinism contract.
    draws: ClassVar[bool] = False

    def open(self, rig) -> int:
        rig.log(self.actions[0], self.subject)
        stream = None
        if self.draws:
            stream = rig.rng.stream(
                f"faults/{self.stream}/{self.subject}@{self.at_us}"
            )
        return rig.backhaul.open_fault(self.stream, self, stream)

    def close(self, rig, handle) -> None:
        result = rig.backhaul.close_fault(handle)
        rig.log(
            self.actions[1],
            self.subject if result is None else f"{self.subject}:{result}",
        )


# ----------------------------------------------------------------------
# the kinds
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ApCrash(_Crash, _OnAp):
    """AP ``ap_id`` crashes at ``at_us`` (radio off, backhaul endpoint
    silent, cyclic queues flushed) and — unless ``down_us`` is ``None``
    — restarts ``down_us`` later, announcing itself to the controller."""

    ap_id: str
    #: Downtime before restart; ``None`` means the AP never comes back.
    down_us: Optional[int] = None

    stream = "crashes"
    drawn = {"down_us": 500_000}
    actions = ("crash", "restart")


@dataclass(frozen=True)
class Partition(_BackhaulWindow):
    """The backhaul is partitioned between endpoint sets ``side_a``
    and ``side_b`` at ``at_us`` and healed ``duration_us`` later."""

    side_a: FrozenSet[str]
    side_b: FrozenSet[str]

    acts_on = "two backhaul endpoint sets"
    stream = "partitions"
    drawn = {"duration_us": 200_000}
    actions = ("partition", "heal")

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "side_a", frozenset(self.side_a))
        object.__setattr__(self, "side_b", frozenset(self.side_b))
        _require(
            not self.side_a & self.side_b, "partition sides must be disjoint"
        )

    @property
    def subject(self) -> str:
        return ",".join(sorted(self.side_a)) + "|" + ",".join(sorted(self.side_b))

    def describe(self) -> str:
        return (
            f"partition {sorted(self.side_a)} | {sorted(self.side_b)} "
            f"for {self.duration_us}us"
        )

    def names(self):
        return [
            ("backhaul node", node)
            for node in sorted(self.side_a | self.side_b)
        ]

    @classmethod
    def draw(cls, at_us, targets, **fields):
        # A random non-empty strict subset of the APs, cut away from
        # the controller (and the remaining APs).
        aps = targets.ap_ids
        k = int(targets.pick.integers(1, max(2, len(aps))))
        cut = frozenset(aps[i] for i in targets.pick.permutation(len(aps))[:k])
        keep = frozenset(aps) - cut
        return cls(
            at_us=at_us,
            side_a=cut,
            side_b=keep | {targets.controller_id},
            **fields,
        )


@dataclass(frozen=True)
class LinkJitter(_OnLink, _BackhaulWindow):
    """Messages on the directed backhaul link ``src -> dst`` pick up a
    uniform extra delay in ``[0, jitter_us]`` for ``duration_us``,
    which reorders control traffic."""

    src: str
    dst: str
    jitter_us: int

    stream = "jitter"
    draws = True
    drawn = {"jitter_us": 5_000, "duration_us": 500_000}
    actions = ("jitter-on", "jitter-off")

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.jitter_us > 0, "jitter_us must be positive")

    def describe(self) -> str:
        return (
            f"jitter {self.subject} +U[0,{self.jitter_us}]us "
            f"for {self.duration_us}us"
        )

    @classmethod
    def draw(cls, at_us, targets, **fields):
        return cls(
            at_us=at_us, src=targets.controller_id, dst=targets.ap(), **fields
        )


@dataclass(frozen=True)
class CsiBlackout(_OnAp, _Window):
    """AP ``ap_id`` stops producing CSI reports for ``duration_us`` —
    the controller's view of that cell goes stale without the AP
    itself failing."""

    ap_id: str

    stream = "csi"
    drawn = {"duration_us": 500_000}
    actions = ("csi-off", "csi-on")

    def describe(self) -> str:
        return f"csi-blackout {self.ap_id} for {self.duration_us}us"

    def open(self, rig) -> bool:
        rig.log(self.actions[0], self.ap_id)
        self.node(rig).csi_suppressed += 1
        return True

    def close(self, rig, handle) -> None:
        rig.log(self.actions[1], self.ap_id)
        self.node(rig).csi_suppressed -= 1


@dataclass(frozen=True)
class ControllerCrash(_Crash, _OnController):
    """The controller process dies at ``at_us`` (volatile state lost,
    backhaul endpoint dark) and — unless ``down_us`` is ``None`` —
    restarts ``down_us`` later.  Alone in its region, the restarted
    controller takes over with a ``ctrl-takeover`` and rebuilds its
    state from the APs' answers.  One half of an HA pair comes back
    inert instead: a warm standby promotes on its primary's silence,
    however short the crash."""

    controller_id: str = "controller"
    #: Downtime before restart; ``None`` means it never comes back
    #: unaided (an HA standby may still take over).
    down_us: Optional[int] = None

    stream = "ctrl-crashes"
    drawn = {"down_us": 1_000_000}
    actions = ("ctrl-crash", "ctrl-restart")


@dataclass(frozen=True)
class MsgDuplication(_OnKinds, _BackhaulWindow):
    """For ``duration_us``, each backhaul message whose kind matches
    ``kinds`` is delivered **plus** ``copies`` extra copies with
    probability ``probability`` — the classic retransmit-amplification
    adversary that flushes out non-idempotent control handlers."""

    #: Per-message duplication probability.
    probability: float = 0.3
    #: Extra copies delivered per duplicated message.
    copies: int = 1
    #: Message kinds to target; ``None`` duplicates every kind.
    kinds: Optional[FrozenSet[str]] = None

    stream = "dup"
    draws = True
    drawn = {"duration_us": 500_000}
    actions = ("dup-on", "dup-off")

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(0.0 < self.probability <= 1.0, "probability must be in (0, 1]")
        _require(self.copies > 0, "copies must be positive")

    def describe(self) -> str:
        return (
            f"dup [{self.subject}] p={self.probability} x{self.copies} "
            f"for {self.duration_us}us"
        )


@dataclass(frozen=True)
class StaleReplay(_OnKinds, _BackhaulWindow):
    """For ``duration_us`` the adversary *records* up to ``count``
    matching messages; when the window closes it re-delivers them all
    — old control traffic arriving long after the protocol moved on,
    exactly what a healing partition's queued switch fabric does."""

    #: Capture-buffer bound (replay is never unbounded).
    count: int = 32
    #: Message kinds to record; ``None`` records every kind.
    kinds: Optional[FrozenSet[str]] = None

    stream = "replay"
    drawn = {"duration_us": 200_000}
    actions = ("replay-capture", "replay-fire")

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.count > 0, "count must be positive")

    def describe(self) -> str:
        return (
            f"replay [{self.subject}] <= {self.count} msgs "
            f"after {self.duration_us}us"
        )


@dataclass(frozen=True)
class MsgCorruption(_OnKinds, _BackhaulWindow):
    """For ``duration_us`` each matching message is corrupted with
    probability ``probability``; corrupted messages fail their
    checksum and are dropped *with accounting* (never silently)."""

    probability: float = 0.05
    #: Message kinds to target; ``None`` corrupts every kind.
    kinds: Optional[FrozenSet[str]] = None

    stream = "corrupt"
    draws = True
    drawn = {"duration_us": 500_000}
    actions = ("corrupt-on", "corrupt-off")

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(0.0 < self.probability <= 1.0, "probability must be in (0, 1]")

    def describe(self) -> str:
        return (
            f"corrupt [{self.subject}] p={self.probability} "
            f"for {self.duration_us}us"
        )

    @classmethod
    def draw(cls, at_us, targets, **fields):
        return cls(at_us=at_us, **fields)  # every kind: no target choice


@dataclass(frozen=True)
class OneWayPartition(_OnLink, _BackhaulWindow):
    """The directed backhaul link ``src -> dst`` drops everything for
    ``duration_us`` while the reverse direction keeps working — the
    asymmetric-reachability case symmetric :class:`Partition` cannot
    express (acks flow, commands do not, or vice versa)."""

    src: str
    dst: str

    adversary = True
    exclusive = True
    stream = "oneway"
    drawn = {"duration_us": 200_000}
    actions = ("oneway-on", "oneway-off")

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.src != self.dst, "src and dst must differ")

    def describe(self) -> str:
        return f"oneway {self.src}-x->{self.dst} for {self.duration_us}us"

    @classmethod
    def draw(cls, at_us, targets, **fields):
        ap_id = targets.ap()
        ends = (targets.controller_id, ap_id)
        src, dst = ends if bool(targets.pick.integers(0, 2)) else ends[::-1]
        return cls(at_us=at_us, src=src, dst=dst, **fields)


@dataclass(frozen=True)
class GrayFailure(_OnAp, _BackhaulWindow):
    """AP ``ap_id`` keeps heartbeating (heartbeats ride the prioritized
    reliable control class) while every *other* message to or from it
    picks up ``extra_latency_us`` and an extra ``loss_rate`` for
    ``duration_us`` — the queue/CPU pathology of a sick-but-alive AP
    that a liveness table alone can never see."""

    ap_id: str
    #: Extra one-way latency on non-reliable messages to/from the AP.
    extra_latency_us: int = 2_000
    #: Extra Bernoulli loss on non-reliable messages to/from the AP.
    loss_rate: float = 0.2

    adversary = True
    stream = "gray"
    draws = True
    drawn = {"duration_us": 1_000_000}
    actions = ("gray-on", "gray-off")

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            self.extra_latency_us >= 0, "extra_latency_us must be non-negative"
        )
        _require(0.0 <= self.loss_rate <= 1.0, "loss_rate must be in [0, 1]")
        _require(
            self.extra_latency_us > 0 or self.loss_rate > 0.0,
            "gray failure needs extra_latency_us or loss_rate",
        )

    def describe(self) -> str:
        return (
            f"gray {self.ap_id} +{self.extra_latency_us}us "
            f"loss={self.loss_rate} for {self.duration_us}us"
        )


#: Every kind a plan may hold.  The position is the sort rank among
#: events due at the same instant, so it is part of what a seed means.
FAULT_CLASSES: Tuple[Type[FaultEvent], ...] = (
    ApCrash,
    Partition,
    LinkJitter,
    CsiBlackout,
    ControllerCrash,
    MsgDuplication,
    StaleReplay,
    MsgCorruption,
    OneWayPartition,
    GrayFailure,
)
_RANK = {kind: rank for rank, kind in enumerate(FAULT_CLASSES)}


def _sort_key(event: FaultEvent) -> Tuple[int, int, str]:
    """Deterministic total order: time, then kind, then identity."""
    return (event.at_us, _RANK[type(event)], event.subject)


def _clash(
    busy: Dict[tuple, List[Tuple[int, int]]], event: FaultEvent
) -> Optional[Tuple[int, int]]:
    """The earlier window of its kind and subject that an exclusive
    ``event`` overlaps, if any; otherwise its own window joins ``busy``."""
    lasts_us = event.lasts_us
    if not event.exclusive or lasts_us is None:
        return None
    end_us = event.at_us + lasts_us
    windows = busy.setdefault((type(event), event.subject), [])
    for window in windows:
        if event.at_us < window[1] and window[0] < end_us:
            return window
    windows.append((event.at_us, end_us))
    return None


@dataclass
class FaultPlan:
    """An ordered, immutable-in-spirit schedule of fault events."""

    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=_sort_key)
        self._validate()

    def _validate(self) -> None:
        """Cross-event checks the per-event ``__post_init__`` cannot do.

        Two :class:`OneWayPartition` windows on the same *directed*
        link must not overlap.  Each heals by the handle its opening
        returned, so an overlap would be harmless — and would say
        nothing, the link being cut already; the rule stays because
        :meth:`random` has always skipped such draws, and a plan it
        cannot draw should not validate either.  Opposite directions
        on the same node pair are fine (that is just a full partition,
        expressed twice).
        """
        busy: Dict[tuple, List[Tuple[int, int]]] = {}
        for event in self.events:
            window = _clash(busy, event)
            if window is not None:
                raise ValueError(
                    f"overlapping {type(event).__name__} windows on "
                    f"{event.subject}: [{window[0]}, {window[1]}) and "
                    f"the one at {event.at_us}"
                )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def random(
        cls,
        rng: RngRegistry,
        ap_ids: Sequence[str],
        duration_us: int,
        rates: Mapping[Type[FaultEvent], float],
        *,
        overrides: Optional[
            Mapping[Type[FaultEvent], Mapping[str, object]]
        ] = None,
        controller_id: str = "controller",
    ) -> "FaultPlan":
        """Draw a plan from named rng streams (``faults/...``).

        Each event class in ``rates`` arrives as a Poisson process with
        the given per-second rate over ``[0, duration_us)``; its events
        take the class's ``drawn`` field values unless
        ``overrides[EventClass]`` names others.  All draws come from
        streams named for the family, so changing one rate never
        perturbs the draws of another family, and identical
        ``(seed, rates)`` pairs yield identical plans.
        """
        if duration_us <= 0:
            raise ValueError("duration_us must be positive")
        ap_ids = list(ap_ids)
        if not ap_ids:
            raise ValueError("ap_ids must be non-empty")
        duration_s = duration_us / 1e6
        events: List[FaultEvent] = []
        # Draws that would overlap an earlier window of an exclusive
        # kind on the same subject are skipped (the validator rejects them),
        # deterministically: arrival times are processed in sorted
        # order, so the same draws always keep the same subset.
        busy: Dict[tuple, List[Tuple[int, int]]] = {}
        for kind in FAULT_CLASSES:
            rate_per_s = rates.get(kind, 0.0)
            if rate_per_s <= 0.0:
                continue
            arrivals = rng.stream(f"faults/{kind.stream}")
            targets = _Targets(
                rng.stream(f"faults/{kind.stream}/choice"), ap_ids, controller_id
            )
            fields = {**kind.drawn, **(overrides or {}).get(kind, {})}
            count = int(arrivals.poisson(rate_per_s * duration_s))
            for at_us in sorted(
                int(arrivals.integers(0, duration_us)) for _ in range(count)
            ):
                event = kind.draw(at_us, targets, **fields)
                if _clash(busy, event) is None:
                    events.append(event)
        return cls(events=events)

    @classmethod
    def soak(
        cls,
        rng: RngRegistry,
        ap_ids: Sequence[str],
        duration_us: int,
        *,
        intensity: float = 1.0,
        adversary_intensity: float = 0.0,
    ) -> "FaultPlan":
        """Continuous background chaos for endurance runs.

        A convenience preset over :meth:`random` scaled by a single
        ``intensity`` knob: at 1.0 a rolling AP crash/restart lands
        roughly every 20 s somewhere in the array, with backhaul
        jitter and CSI blackouts at similar cadence — enough that a
        multi-minute soak is *never* fault-free, while keeping most of
        the array healthy at any instant.  Downtimes are short (AP
        2 s) so churned clients always have live cells to land on.
        Same determinism contract as :meth:`random`.

        ``adversary_intensity`` (default 0 — existing soak plans are
        unchanged to the byte) layers the message-level adversary on
        top: duplication, stale replay, corruption, one-way partitions
        and gray failures at ~1/30 s each per unit of intensity.
        """
        if intensity < 0:
            raise ValueError("intensity must be non-negative")
        if adversary_intensity < 0:
            raise ValueError("adversary_intensity must be non-negative")
        rates: Dict[Type[FaultEvent], float] = {
            kind: 0.033 * adversary_intensity
            for kind in FAULT_CLASSES
            if kind.adversary
        }
        for kind in (ApCrash, LinkJitter, CsiBlackout):
            rates[kind] = 0.05 * intensity
        return cls.random(
            rng,
            ap_ids,
            duration_us,
            rates,
            overrides={
                ApCrash: {"down_us": 2_000_000},
                LinkJitter: {"jitter_us": 2_000, "duration_us": 1_000_000},
                CsiBlackout: {"duration_us": 1_000_000},
            },
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def of(self, *kinds: Type[FaultEvent]) -> List[FaultEvent]:
        """The plan's events of the given classes, in schedule order."""
        return [e for e in self.events if isinstance(e, kinds)]

    def adversary_events(self) -> List[FaultEvent]:
        """Every message-level adversary event in the plan."""
        return [e for e in self.events if e.adversary]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def describe(self) -> List[str]:
        """Human-readable one-liner per event (stable ordering)."""
        return [f"{e.at_us:>12d} {e.describe()}" for e in self.events]
