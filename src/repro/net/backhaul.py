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
from typing import Any, Callable, Dict, FrozenSet, KeysView, Optional, Tuple

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
#: manager acks, retransmits and abandons them itself (Retransmitter,
#: repro.sim.engine) instead of leaning on transport magic.
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
    #: Extra copies injected by ``dup`` windows.
    duplicated: int = 0
    #: Old messages re-delivered when a ``replay`` window closed.
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


#: The fault-window kinds :meth:`EthernetBackhaul.open_fault` accepts,
#: in the order ``send()`` consults them.  The names are the rng
#: families of the plan events that describe them.
FAULT_KINDS = ("partitions", "oneway", "gray", "corrupt", "jitter", "replay", "dup")


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
        #: Open fault windows: kind -> handle -> (window, rng, captured).
        #: ``None`` until the first window opens and again once the
        #: last one closes, so idle runs pay one attribute load.
        self._faults: Optional[Dict[str, Dict[int, tuple]]] = None
        self._next_fault_handle = 1
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
    # fault injection: dark endpoints, and one table of fault windows
    # ------------------------------------------------------------------

    def set_node_down(self, node_id: str, down: bool = True) -> None:
        """Silence an endpoint (crashed AP): its port neither sends nor
        receives until brought back up.  Registration is untouched —
        the node keeps its handler for when it restarts."""
        if down:
            self._down_nodes.add(node_id)
        else:
            self._down_nodes.discard(node_id)

    def nodes(self) -> KeysView[str]:
        """Ids of every attached node."""
        return self._handlers.keys()

    def open_fault(
        self,
        kind: str,
        window: Any,
        rng: Optional[np.random.Generator] = None,
    ) -> int:
        """Open a fault window of one of :data:`FAULT_KINDS`; returns
        the handle :meth:`close_fault` takes.  ``window`` is the plan
        event that describes it — :mod:`repro.faults.plan` says what
        each kind does and validates its fields, which ``send()`` reads
        while the window is open — and ``rng`` the stream that its
        per-message draws come from (gray, corrupt, jitter, dup)."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        if window.adversary:
            self.adversary_armed = True
        if self._faults is None:
            self._faults = {name: {} for name in FAULT_KINDS}
        handle = self._next_fault_handle
        self._next_fault_handle += 1
        self._faults[kind][handle] = (window, rng, [])
        return handle

    def close_fault(self, handle: int) -> Optional[int]:
        """Close one window by its handle (unknown: a no-op).  Closing
        a ``replay`` window re-delivers what it recorded and returns
        how many messages that was; every other kind returns None."""
        faults = self._faults
        if faults is None:
            return None
        for kind, windows in faults.items():
            entry = windows.pop(handle, None)
            if entry is not None:
                if not any(faults.values()):
                    self._faults = None
                return self._replay(entry[2]) if kind == "replay" else None
        return None

    def _replay(self, captured: list) -> int:
        """Re-deliver a closed capture window's messages in capture
        order, after the normal path latency.  Replays are adversary
        deliveries: they skip loss, jitter, capture and duplication
        processing, but still respect crashed nodes and partitions."""
        tracer = self._sim.obs.trace
        replayed = 0
        for offset, record in enumerate(captured):
            src_id, dst_id, kind, payload, size_bytes, control = record
            if self._blocked(src_id, dst_id) is not None:
                continue
            handler = self._handlers[dst_id]
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
                CONTROL_LATENCY_US if control else self.latency_us
            ) + offset
            self._sim.schedule(
                delay,
                lambda h=handler, s=src_id, k=kind, p=payload: h(s, k, p),
            )
        return replayed

    def _blocked(self, src_id: str, dst_id: str) -> Optional[str]:
        """What cuts ``src -> dst`` outright, as the drop it causes:
        ``"fault"`` (a dark endpoint or a partition), ``"oneway"``, or
        ``None``."""
        down = self._down_nodes
        if down and (src_id in down or dst_id in down):
            return "fault"
        faults = self._faults
        if faults is None:
            return None
        for window, _, _ in faults["partitions"].values():
            side_a, side_b = window.side_a, window.side_b
            if (src_id in side_a and dst_id in side_b) or (
                src_id in side_b and dst_id in side_a
            ):
                return "fault"
        for window, _, _ in faults["oneway"].values():
            if window.src == src_id and window.dst == dst_id:
                return "oneway"
        return None

    def unreachable(self, src_id: str, dst_id: str) -> bool:
        """True when *anything* currently blocks ``src -> dst``: a dark
        endpoint, a symmetric partition, or a one-way partition.  The
        invariant checker uses this to excuse liveness-table lag."""
        return self._blocked(src_id, dst_id) is not None

    def _judge(
        self, src_id: str, dst_id: str, kind: str
    ) -> Tuple[Optional[str], int]:
        """The injected faults' verdict on one message: which of them
        drops it (``None``: none does) and the latency a gray endpoint
        adds.  Cuts, then gray, then corruption: the order fixes which
        window streams draw for a message that an earlier one drops."""
        drop = self._blocked(src_id, dst_id)
        faults = self._faults
        if drop is not None or faults is None:
            return drop, 0
        extra_us = 0
        if faults["gray"] and kind not in RELIABLE_KINDS:
            # One window judges a message: the sender's, else the
            # receiver's (the earliest opened, if windows overlap).
            for node_id in (src_id, dst_id):
                hit = next(
                    (e for e in faults["gray"].values() if e[0].ap_id == node_id),
                    None,
                )
                if hit is not None:
                    window, rng, _ = hit
                    if window.loss_rate > 0.0 and rng.random() < window.loss_rate:
                        return "gray", 0
                    extra_us = window.extra_latency_us
                    break
        for window, rng, _ in faults["corrupt"].values():
            if window.kinds is not None and kind not in window.kinds:
                continue
            if rng.random() < window.probability:
                return "corrupt", 0
        return None, extra_us

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
            # What every record about this message carries.
            track, detail = f"port/{src_id}", kind in _DETAIL_KINDS
            tags = dict(src=src_id, dst=dst_id, msg=kind)
            tracer.emit(
                "backhaul", "tx", track=track, detail=detail, **tags,
                bytes=size_bytes, control=control,
            )
        # -- the one drop verdict -------------------------------------
        # Injected faults first (a dark endpoint, then the open windows
        # in FAULT_KINDS order), then the Bernoulli loss knob.
        drop: Optional[str] = None
        gray_extra_us = 0
        faults = self._faults
        if faults is not None or self._down_nodes:
            drop, gray_extra_us = self._judge(src_id, dst_id, kind)
        # Liveness and HA traffic rides a reliable transport in a real
        # deployment (the paper's sta-sync uses per-peer TCP); exempting
        # those kinds from the scalar Bernoulli loss knob also keeps the
        # loss stream's draw sequence for data/control traffic identical
        # whether or not liveness/HA is running.  Injected faults
        # (crash, partition) do drop them — that is what the liveness
        # trackers on both sides detect.
        if (
            drop is None
            and self.loss_rate > 0.0
            and kind not in RELIABLE_KINDS
            and self._loss_draw() < self.loss_rate
        ):
            drop = "loss"
        if drop is not None:
            if drop == "loss":
                self.dropped += 1
            else:
                counter = f"{drop}_dropped"
                setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            if tracer.active:
                tracer.emit(
                    "backhaul",
                    # Spelt out so the TRC001-003 checks (tests/lint.py)
                    # read the names off the emit site.
                    "fault-drop" if drop == "fault"
                    else "oneway-drop" if drop == "oneway"
                    else "gray-drop" if drop == "gray"
                    else "corrupt-drop" if drop == "corrupt"
                    else "loss-drop",
                    track=track,
                    detail=detail and drop != "loss",
                    **tags,
                )
            return
        serialization_us = int(size_bytes * 8 / self.bandwidth_bps * 1e6)
        if control:
            delay = CONTROL_LATENCY_US + serialization_us
        else:
            # FIFO per sender port: messages serialize one at a time.
            start = max(self._sim.now, self._port_busy_until.get(src_id, 0))
            self._port_busy_until[src_id] = start + serialization_us
            delay = (start - self._sim.now) + serialization_us + self.latency_us
        handler = self._handlers[dst_id]
        if faults is not None:
            for window, rng, _ in faults["jitter"].values():
                if window.src == src_id and window.dst == dst_id:
                    # Varying extra delays reorder messages naturally.
                    delay += int(rng.integers(0, window.jitter_us + 1))
            delay += gray_extra_us
            for window, _, captured in faults["replay"].values():
                if window.kinds is not None and kind not in window.kinds:
                    continue
                if len(captured) < window.count:
                    captured.append(
                        (src_id, dst_id, kind, payload, size_bytes, control)
                    )
            for window, rng, _ in faults["dup"].values():
                if window.kinds is not None and kind not in window.kinds:
                    continue
                if rng.random() >= window.probability:
                    continue
                for _ in range(window.copies):
                    self.stats.duplicated += 1
                    if tracer.active:
                        tracer.emit(
                            "backhaul", "dup-tx", track=track, detail=detail, **tags
                        )
                    # Copies land shortly after the original with a
                    # varying skew, so they interleave with other
                    # in-flight traffic instead of arriving as a
                    # harmless back-to-back pair.
                    dup_delay = delay + 1 + int(rng.integers(0, 64))
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
    ) -> None:
        """Deliver to every attached node except the sender, on the
        data path."""
        for node_id in list(self._handlers):
            if node_id != src_id:
                self.send(src_id, node_id, kind, payload, size_bytes)
