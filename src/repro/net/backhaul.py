"""The wired Ethernet backhaul between the controller and the APs.

All WGTT control traffic — CSI reports, stop/start/ack switching
messages, forwarded block ACKs, association sync, tunneled data — rides
this network. It is modelled as a switched full-duplex gigabit LAN:
each node has its own uplink port whose serialization is FIFO, plus a
fixed per-hop latency for propagation, switching, and the receiving
host's interrupt/user-space handling. The paper's control packets are
*prioritized* inside the AP; we expose that as a separate low-latency
delivery path (:meth:`EthernetBackhaul.send_control`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple

import numpy as np

from repro.obs.metrics import metric_key
from repro.sim.engine import Simulator
from repro.sim.rng import seeded_generator

#: Default one-way latency: wire + switch + kernel/user handoff.
DEFAULT_LATENCY_US = 300
#: Prioritized control-packet path: bypasses data queues (paper §3.1.2).
CONTROL_LATENCY_US = 150
#: Gigabit Ethernet.
DEFAULT_BANDWIDTH_BPS = 1_000_000_000
#: Seed for the loss stream constructed when the caller sets a
#: ``loss_rate`` without supplying ``loss_rng`` — loss must never be
#: silently disabled, and it must stay reproducible.
DEFAULT_LOSS_SEED = 0xB10C1055

#: Message kinds that model a reliable (TCP-like) transport: exempt
#: from the Bernoulli loss knob, though injected faults (node down,
#: partition) still drop them.  Keeping the exemption kind-based means
#: the loss stream's draw sequence over data/control traffic is
#: unchanged whether liveness or HA messaging is active.
#: The inter-shard handoff kinds ("shard-handoff", "shard-handoff-ack")
#: are deliberately NOT in this set: a client-state transfer between
#: shard controllers is subject to loss and the message-level adversary
#: exactly like the switch handshake it resembles, and the shard
#: manager carries its own ack + retransmission + abandon schedule
#: (see repro.shard.handoff) instead of leaning on transport magic.
RELIABLE_KINDS: FrozenSet[str] = frozenset(
    {"heartbeat", "ctrl-heartbeat", "ha-checkpoint", "ctrl-takeover"}
)

#: Message kinds whose "tx" trace events are per-packet volume: they
#: are tagged ``detail`` so a default (non-detail) traced drive keeps
#: only the protocol-level control handshakes.
_DETAIL_KINDS: FrozenSet[str] = frozenset(
    {"data", "csi", "uplink", "ba-fwd", "heartbeat", "ctrl-heartbeat"}
)


@dataclass
class BackhaulStats:
    """Counters for traffic accounting on the backhaul."""

    messages: int = 0
    bytes: int = 0
    control_messages: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    #: Messages swallowed by injected faults (node down / partition),
    #: kept apart from the random-loss ``dropped`` counter.
    fault_dropped: int = 0
    # -- adversary accounting (all zero unless an adversary is armed) --
    #: Extra copies injected by :class:`~repro.faults.plan.MsgDuplication`.
    duplicated: int = 0
    #: Old messages re-delivered by a :class:`StaleReplay` window.
    replayed: int = 0
    #: Messages corrupted (checksum fail) and dropped, with accounting.
    corrupt_dropped: int = 0
    #: Messages swallowed by a one-way (directed) partition.
    oneway_dropped: int = 0
    #: Messages lost to a gray-failing node's degraded backhaul.
    gray_dropped: int = 0

    def record(self, kind: str, size_bytes: int, control: bool) -> None:
        self.messages += 1
        self.bytes += size_bytes
        if control:
            self.control_messages += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1


class _Adversary:
    """Message-level adversary state, created lazily on first use.

    Fault-free runs never instantiate this: the one
    ``self._adversary is None`` load in :meth:`EthernetBackhaul.send`
    is the whole cost, mirroring the ``_fault_blocked`` empty fast
    path — which is what keeps adversary-off runs bit-identical.
    """

    __slots__ = (
        "duplication",
        "corruption",
        "oneway",
        "captures",
        "degraded",
        "next_handle",
    )

    def __init__(self) -> None:
        #: handle -> (kinds|None, probability, copies, rng)
        self.duplication: Dict[int, tuple] = {}
        #: handle -> (kinds|None, probability, rng)
        self.corruption: Dict[int, tuple] = {}
        #: handle -> (src, dst): directed drop.
        self.oneway: Dict[int, Tuple[str, str]] = {}
        #: handle -> (kinds|None, cap, buffer) for stale replay.
        self.captures: Dict[int, tuple] = {}
        #: node_id -> (extra_latency_us, loss_rate, rng): gray failure.
        self.degraded: Dict[str, tuple] = {}
        self.next_handle = 1

    def empty(self) -> bool:
        return not (
            self.duplication
            or self.corruption
            or self.oneway
            or self.captures
            or self.degraded
        )

    def handle(self) -> int:
        value = self.next_handle
        self.next_handle += 1
        return value


class EthernetBackhaul:
    """Message transport between controller and APs.

    Receivers register a handler taking ``(src_id, kind, payload)``;
    ``payload`` is an arbitrary Python object (a Packet, a CsiReport, a
    control-message dataclass...). ``kind`` routes it inside the node.
    """

    def __init__(
        self,
        sim: Simulator,
        latency_us: int = DEFAULT_LATENCY_US,
        control_latency_us: int = CONTROL_LATENCY_US,
        bandwidth_bps: int = DEFAULT_BANDWIDTH_BPS,
        loss_rate: float = 0.0,
        loss_rng=None,
    ):
        """``loss_rate`` drops each message independently — Ethernet is
        effectively lossless in the deployment, but WGTT's 30 ms stop
        retransmission exists exactly because control packets *can* be
        lost (paper §3.1.2); fault-injection tests use this.

        ``loss_rate == 1.0`` (a black-holed wire) is a legal fault to
        inject; only values outside ``[0, 1]`` are rejected.  When no
        ``loss_rng`` is supplied a default seeded stream is built on
        first use, so a non-zero ``loss_rate`` is never silently a
        no-op.
        """
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")
        self._sim = sim
        self.latency_us = latency_us
        self.control_latency_us = control_latency_us
        self.bandwidth_bps = bandwidth_bps
        self.loss_rate = loss_rate
        self._loss_rng = loss_rng
        self._handlers: Dict[str, Callable[[str, str, object], None]] = {}
        self._port_busy_until: Dict[str, int] = {}
        self.stats = BackhaulStats()
        self.dropped = 0
        # -- fault-injection state (all empty in fault-free runs) -----
        #: Endpoints whose NIC is dark (crashed AP): anything they send
        #: or should receive vanishes silently.
        self._down_nodes: set = set()
        #: Active partitions: id -> (side_a, side_b); a message crossing
        #: from one side to the other is dropped.
        self._partitions: Dict[int, Tuple[FrozenSet[str], FrozenSet[str]]] = {}
        self._next_partition_id = 1
        #: Per-directed-link extra-delay jitter: (src, dst) -> (max_us,
        #: rng).  Varying extra delays reorder messages naturally.
        self._link_jitter: Dict[
            Tuple[str, str], Tuple[int, np.random.Generator]
        ] = {}
        #: Message-level adversary (duplication / replay / corruption /
        #: one-way partitions / gray failure).  ``None`` until the
        #: first adversary window opens; dropped back to ``None`` when
        #: the last one closes, so idle runs pay one attribute load.
        self._adversary: Optional[_Adversary] = None
        #: Latched True the first time an adversary window is armed —
        #: metric collectors key on this so adversary counters only
        #: appear in runs that actually used the adversary.
        self.adversary_armed = False

    def collect_metrics(self) -> Dict[str, object]:
        """Traffic accounting for the metrics snapshot."""
        stats = self.stats
        out: Dict[str, object] = {
            "backhaul_messages": stats.messages,
            "backhaul_bytes": stats.bytes,
            "backhaul_control_messages": stats.control_messages,
            "backhaul_fault_dropped": stats.fault_dropped,
            "backhaul_loss_dropped": self.dropped,
        }
        for kind, count in stats.by_kind.items():
            out[metric_key("backhaul_messages_by_kind", kind=kind)] = count
        if self.adversary_armed:
            # Conditional keys: the armed latch only flips once an
            # adversary event executes, so adversary-free runs keep
            # the exact pre-adversary metric key set (fingerprints).
            out["backhaul_adversary_duplicated"] = stats.duplicated
            out["backhaul_adversary_replayed"] = stats.replayed
            out["backhaul_adversary_corrupt_dropped"] = stats.corrupt_dropped
            out["backhaul_adversary_oneway_dropped"] = stats.oneway_dropped
            out["backhaul_adversary_gray_dropped"] = stats.gray_dropped
        return out

    def register(self, node_id: str, handler: Callable[[str, str, object], None]):
        """Attach a node to the LAN."""
        if node_id in self._handlers:
            raise ValueError(f"{node_id!r} already attached to backhaul")
        self._handlers[node_id] = handler

    # ------------------------------------------------------------------
    # fault injection (crash / partition / jitter)
    # ------------------------------------------------------------------

    def set_node_down(self, node_id: str, down: bool = True) -> None:
        """Silence an endpoint (crashed AP): its port neither sends nor
        receives until brought back up.  Registration is untouched —
        the node keeps its handler for when it restarts."""
        if down:
            self._down_nodes.add(node_id)
        else:
            self._down_nodes.discard(node_id)

    def is_node_down(self, node_id: str) -> bool:
        return node_id in self._down_nodes

    def partition(
        self, side_a: Iterable[str], side_b: Iterable[str]
    ) -> int:
        """Install a partition between two endpoint sets; messages that
        would cross it are dropped.  Returns a handle for :meth:`heal`."""
        a, b = frozenset(side_a), frozenset(side_b)
        if a & b:
            raise ValueError("partition sides must be disjoint")
        partition_id = self._next_partition_id
        self._next_partition_id += 1
        self._partitions[partition_id] = (a, b)
        return partition_id

    def heal(self, partition_id: Optional[int] = None) -> None:
        """Remove one partition (or all of them when id is None)."""
        if partition_id is None:
            self._partitions.clear()
        else:
            self._partitions.pop(partition_id, None)

    def partitioned(self, src_id: str, dst_id: str) -> bool:
        """True when an active partition separates the two endpoints."""
        for side_a, side_b in self._partitions.values():
            if (src_id in side_a and dst_id in side_b) or (
                src_id in side_b and dst_id in side_a
            ):
                return True
        return False

    def set_link_jitter(
        self,
        src_id: str,
        dst_id: str,
        jitter_us: int,
        rng: np.random.Generator,
    ) -> None:
        """Add uniform extra delay in ``[0, jitter_us]`` to every message
        on the directed link — enough variance reorders deliveries."""
        if jitter_us < 0:
            raise ValueError("jitter must be non-negative")
        self._link_jitter[(src_id, dst_id)] = (int(jitter_us), rng)

    def clear_link_jitter(
        self, src_id: Optional[str] = None, dst_id: Optional[str] = None
    ) -> None:
        """Remove jitter from one directed link, or from all links."""
        if src_id is None and dst_id is None:
            self._link_jitter.clear()
        else:
            self._link_jitter.pop((src_id, dst_id), None)

    # ------------------------------------------------------------------
    # message-level adversary (duplication / replay / corruption /
    # one-way partition / gray failure)
    # ------------------------------------------------------------------

    def _ensure_adversary(self) -> _Adversary:
        if self._adversary is None:
            self._adversary = _Adversary()
            self.adversary_armed = True
        return self._adversary

    def _maybe_drop_adversary(self) -> None:
        if self._adversary is not None and self._adversary.empty():
            self._adversary = None

    def set_duplication(
        self,
        kinds: Optional[FrozenSet[str]],
        probability: float,
        copies: int,
        rng: np.random.Generator,
    ) -> int:
        """Duplicate matching messages (prob. per message, ``copies``
        extra deliveries each).  Returns a handle for clearing."""
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        if copies <= 0:
            raise ValueError("copies must be positive")
        adversary = self._ensure_adversary()
        handle = adversary.handle()
        adversary.duplication[handle] = (kinds, probability, copies, rng)
        return handle

    def clear_duplication(self, handle: int) -> None:
        if self._adversary is not None:
            self._adversary.duplication.pop(handle, None)
            self._maybe_drop_adversary()

    def set_corruption(
        self,
        kinds: Optional[FrozenSet[str]],
        probability: float,
        rng: np.random.Generator,
    ) -> int:
        """Corrupt matching messages with ``probability``; corrupted
        messages fail their checksum and are dropped with accounting."""
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        adversary = self._ensure_adversary()
        handle = adversary.handle()
        adversary.corruption[handle] = (kinds, probability, rng)
        return handle

    def clear_corruption(self, handle: int) -> None:
        if self._adversary is not None:
            self._adversary.corruption.pop(handle, None)
            self._maybe_drop_adversary()

    def partition_oneway(self, src_id: str, dst_id: str) -> int:
        """Drop everything on the *directed* link ``src -> dst`` while
        the reverse direction keeps flowing."""
        if src_id == dst_id:
            raise ValueError("src and dst must differ")
        adversary = self._ensure_adversary()
        handle = adversary.handle()
        adversary.oneway[handle] = (src_id, dst_id)
        return handle

    def heal_oneway(self, handle: int) -> None:
        if self._adversary is not None:
            self._adversary.oneway.pop(handle, None)
            self._maybe_drop_adversary()

    def oneway_blocked(self, src_id: str, dst_id: str) -> bool:
        """True when a one-way partition drops ``src -> dst`` traffic."""
        adversary = self._adversary
        if adversary is None or not adversary.oneway:
            return False
        return any(
            src == src_id and dst == dst_id
            for src, dst in adversary.oneway.values()
        )

    def start_replay_capture(
        self, kinds: Optional[FrozenSet[str]], count: int
    ) -> int:
        """Start recording matching *delivered* messages (up to
        ``count``) for later re-delivery via :meth:`replay_captured`."""
        if count <= 0:
            raise ValueError("count must be positive")
        adversary = self._ensure_adversary()
        handle = adversary.handle()
        adversary.captures[handle] = (kinds, int(count), [])
        return handle

    def replay_captured(self, handle: int) -> int:
        """Close a capture window and re-deliver everything it recorded
        (in capture order, after the normal path latency).  Replays are
        adversary deliveries: they skip loss, jitter, capture and
        duplication processing, but still respect crashed nodes and
        partitions.  Returns how many messages were re-injected."""
        if self._adversary is None:
            return 0
        entry = self._adversary.captures.pop(handle, None)
        self._maybe_drop_adversary()
        if entry is None:
            return 0
        _kinds, _cap, buffer = entry
        tracer = self._sim.obs.trace
        replayed = 0
        for offset, record in enumerate(buffer):
            src_id, dst_id, kind, payload, size_bytes, control = record
            if self._fault_blocked(src_id, dst_id) or self.oneway_blocked(
                src_id, dst_id
            ):
                continue
            handler = self._handlers.get(dst_id)
            if handler is None:
                continue
            self.stats.replayed += 1
            replayed += 1
            if tracer.active:
                tracer.emit(
                    "backhaul",
                    "replay-tx",
                    track=f"port/{src_id}",
                    detail=kind in _DETAIL_KINDS,
                    src=src_id,
                    dst=dst_id,
                    msg=kind,
                )
            delay = (
                self.control_latency_us if control else self.latency_us
            ) + offset
            self._sim.schedule(
                delay,
                lambda h=handler, s=src_id, k=kind, p=payload: h(s, k, p),
            )
        return replayed

    def set_node_degraded(
        self,
        node_id: str,
        extra_latency_us: int,
        loss_rate: float,
        rng: np.random.Generator,
    ) -> None:
        """Gray-fail a node: non-reliable messages to or from it pick
        up ``extra_latency_us`` and an extra Bernoulli ``loss_rate``,
        while heartbeats (the reliable class) keep flowing — the
        liveness table stays green while service rots."""
        if extra_latency_us < 0:
            raise ValueError("extra_latency_us must be non-negative")
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")
        adversary = self._ensure_adversary()
        adversary.degraded[node_id] = (int(extra_latency_us), loss_rate, rng)

    def clear_node_degraded(self, node_id: str) -> None:
        if self._adversary is not None:
            self._adversary.degraded.pop(node_id, None)
            self._maybe_drop_adversary()

    def is_node_degraded(self, node_id: str) -> bool:
        adversary = self._adversary
        return adversary is not None and node_id in adversary.degraded

    def unreachable(self, src_id: str, dst_id: str) -> bool:
        """True when *anything* currently blocks ``src -> dst``: a dark
        endpoint, a symmetric partition, or a one-way partition.  The
        invariant checker uses this to excuse liveness-table lag."""
        return self._fault_blocked(src_id, dst_id) or self.oneway_blocked(
            src_id, dst_id
        )

    def _fault_blocked(self, src_id: str, dst_id: str) -> bool:
        if not self._down_nodes and not self._partitions:
            return False  # fault-free fast path
        if src_id in self._down_nodes or dst_id in self._down_nodes:
            return True
        return self.partitioned(src_id, dst_id)

    def _loss_draw(self) -> float:
        if self._loss_rng is None:
            self._loss_rng = seeded_generator(DEFAULT_LOSS_SEED)
        return self._loss_rng.random()

    def send(
        self,
        src_id: str,
        dst_id: str,
        kind: str,
        payload: object,
        size_bytes: int = 128,
        control: bool = False,
    ) -> None:
        """Deliver ``payload`` to ``dst_id`` after serialization + latency.

        Control messages take the prioritized path: they skip the data
        FIFO's queueing backlog and use the shorter handling latency.
        """
        if dst_id not in self._handlers:
            raise KeyError(f"unknown backhaul destination {dst_id!r}")
        self.stats.record(kind, size_bytes, control)
        tracer = self._sim.obs.trace
        if tracer.active:
            tracer.emit(
                "backhaul",
                "tx",
                track=f"port/{src_id}",
                detail=kind in _DETAIL_KINDS,
                src=src_id,
                dst=dst_id,
                msg=kind,
                bytes=size_bytes,
                control=control,
            )
        if self._fault_blocked(src_id, dst_id):
            self.stats.fault_dropped += 1
            if tracer.active:
                tracer.emit(
                    "backhaul",
                    "fault-drop",
                    track=f"port/{src_id}",
                    detail=kind in _DETAIL_KINDS,
                    src=src_id,
                    dst=dst_id,
                    msg=kind,
                )
            return
        adversary = self._adversary
        gray_extra_us = 0
        if adversary is not None:
            if adversary.oneway and self.oneway_blocked(src_id, dst_id):
                self.stats.oneway_dropped += 1
                if tracer.active:
                    tracer.emit(
                        "backhaul",
                        "oneway-drop",
                        track=f"port/{src_id}",
                        detail=kind in _DETAIL_KINDS,
                        src=src_id,
                        dst=dst_id,
                        msg=kind,
                    )
                return
            if adversary.degraded and kind not in RELIABLE_KINDS:
                entry = adversary.degraded.get(src_id)
                if entry is None:
                    entry = adversary.degraded.get(dst_id)
                if entry is not None:
                    extra_us, gray_loss, gray_rng = entry
                    if gray_loss > 0.0 and gray_rng.random() < gray_loss:
                        self.stats.gray_dropped += 1
                        if tracer.active:
                            tracer.emit(
                                "backhaul",
                                "gray-drop",
                                track=f"port/{src_id}",
                                detail=kind in _DETAIL_KINDS,
                                src=src_id,
                                dst=dst_id,
                                msg=kind,
                            )
                        return
                    gray_extra_us = extra_us
            if adversary.corruption:
                for c_kinds, c_prob, c_rng in adversary.corruption.values():
                    if c_kinds is not None and kind not in c_kinds:
                        continue
                    if c_rng.random() < c_prob:
                        self.stats.corrupt_dropped += 1
                        if tracer.active:
                            tracer.emit(
                                "backhaul",
                                "corrupt-drop",
                                track=f"port/{src_id}",
                                detail=kind in _DETAIL_KINDS,
                                src=src_id,
                                dst=dst_id,
                                msg=kind,
                            )
                        return
        # Liveness and HA traffic rides a reliable transport in a real
        # deployment (the paper's sta-sync uses per-peer TCP); exempting
        # those kinds from the scalar Bernoulli loss knob also keeps the
        # loss stream's draw sequence for data/control traffic identical
        # whether or not liveness/HA is running.  Injected faults
        # (crash, partition) do drop them — that is what the liveness
        # trackers on both sides detect.
        if self.loss_rate > 0.0 and kind not in RELIABLE_KINDS:
            if self._loss_draw() < self.loss_rate:
                self.dropped += 1
                if tracer.active:
                    tracer.emit(
                        "backhaul",
                        "loss-drop",
                        track=f"port/{src_id}",
                        src=src_id,
                        dst=dst_id,
                        msg=kind,
                    )
                return
        serialization_us = int(size_bytes * 8 / self.bandwidth_bps * 1e6)
        if control:
            delay = self.control_latency_us + serialization_us
        else:
            # FIFO per sender port: messages serialize one at a time.
            start = max(self._sim.now, self._port_busy_until.get(src_id, 0))
            self._port_busy_until[src_id] = start + serialization_us
            delay = (start - self._sim.now) + serialization_us + self.latency_us
        jitter = self._link_jitter.get((src_id, dst_id))
        if jitter is not None:
            max_us, rng = jitter
            if max_us > 0:
                delay += int(rng.integers(0, max_us + 1))
        delay += gray_extra_us
        handler = self._handlers[dst_id]
        if adversary is not None:
            if adversary.captures:
                for r_kinds, r_cap, r_buffer in adversary.captures.values():
                    if r_kinds is not None and kind not in r_kinds:
                        continue
                    if len(r_buffer) < r_cap:
                        r_buffer.append(
                            (src_id, dst_id, kind, payload, size_bytes, control)
                        )
            if adversary.duplication:
                for entry in adversary.duplication.values():
                    d_kinds, d_prob, d_copies, d_rng = entry
                    if d_kinds is not None and kind not in d_kinds:
                        continue
                    if d_rng.random() >= d_prob:
                        continue
                    for _ in range(d_copies):
                        self.stats.duplicated += 1
                        if tracer.active:
                            tracer.emit(
                                "backhaul",
                                "dup-tx",
                                track=f"port/{src_id}",
                                detail=kind in _DETAIL_KINDS,
                                src=src_id,
                                dst=dst_id,
                                msg=kind,
                            )
                        # Copies land shortly after the original with a
                        # varying skew, so they interleave with other
                        # in-flight traffic instead of arriving as a
                        # harmless back-to-back pair.
                        dup_delay = delay + 1 + int(d_rng.integers(0, 64))
                        self._sim.schedule(
                            dup_delay,
                            lambda h=handler: h(src_id, kind, payload),
                        )
        self._sim.schedule(delay, lambda: handler(src_id, kind, payload))

    def send_control(
        self, src_id: str, dst_id: str, kind: str, payload: object,
        size_bytes: int = 64,
    ) -> None:
        """Shorthand for the prioritized control path."""
        self.send(src_id, dst_id, kind, payload, size_bytes, control=True)

    def broadcast(
        self,
        src_id: str,
        kind: str,
        payload: object,
        size_bytes: int = 128,
        control: bool = False,
    ) -> None:
        """Deliver to every attached node except the sender."""
        for node_id in list(self._handlers):
            if node_id != src_id:
                self.send(src_id, node_id, kind, payload, size_bytes, control)
