"""WGTT system parameters, with the paper's defaults.

Every number here is either stated in the paper or calibrated against a
measurement the paper reports (noted inline), and every one is set by
some run or test — the hysteresis sweep (Figure 22) is literally a
parameter sweep over this object.  Protocol numbers no run varies (the
selection window, the stop retransmit, the NIC drain, ...) are module
constants beside the code that reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import MS

#: Shared BSSID all WGTT APs present to clients (§4.3).
BSSID = "wgtt-bss"


@dataclass
class WgttConfig:
    """Tunables of the WGTT controller/AP protocol suite."""

    #: Minimum time between switches for one client (§5.3.3 sweeps
    #: 40/80/120 ms; smaller adapts faster — 40 ms is the best setting).
    time_hysteresis_us: int = 40 * MS

    #: Cyclic queue depth: m = 12 bits of index space (§3.1.2).
    index_bits: int = 12

    #: Extra ESNR margin (dB) a challenger AP must beat the incumbent
    #: by; small, to suppress flapping on measurement noise.
    switch_margin_db: float = 1.5

    # -- AP liveness / failover (robustness extension) ----------------

    #: AP → controller heartbeat period over the backhaul.  0 disables
    #: heartbeats (and with them dead-AP detection).
    heartbeat_interval_us: int = 20 * MS

    # -- controller high availability (HA extension) ------------------

    #: Master switch for the controller HA subsystem.  When False (the
    #: default) nothing changes: no standby is built, no controller
    #: heartbeats are broadcast, no checkpoints are shipped — runs are
    #: bit-identical to the pre-HA simulator.
    ha_enabled: bool = False

    #: How often the primary ships a full state checkpoint to the
    #: standby.  Smaller intervals bound duplicate leakage and lost
    #: packets across a failover at the cost of backhaul bytes — the
    #: ``ext_ha`` sweep measures the trade.
    checkpoint_interval_us: int = 100 * MS

    # -- admission control (soak extension) ---------------------------

    #: When True the controller shapes the downlink ingress per
    #: client: each client gets a token bucket, over-rate packets park
    #: in a bounded per-client pacing queue, and a deterministic
    #: round-robin release timer drains the queues as tokens refill,
    #: so the serving AP's cyclic queue is not lapped under overload
    #: (``overflow_drops`` in
    #: :class:`~repro.core.cyclic_queue.CyclicQueue`).  Default False
    #: — the admission path is never consulted and runs stay
    #: bit-identical to the pre-admission simulator.
    admission_enabled: bool = False

    #: Per-client sustained admission rate, packets per second.
    admission_rate_pps: int = 2000

    #: Token-bucket burst depth, packets.  A bucket starts full.
    admission_burst: int = 64

    #: Bounded per-client pacing queue (packets).  Drop-tail beyond
    #: this; drops are explicit (``admission_dropped``), never silent.
    admission_queue_slots: int = 256

    # -- ablation switches (all paper-default True/median) ------------

    #: Forward overheard block ACKs to the serving AP (§3.2.1).
    ba_forwarding_enabled: bool = True

    #: Fan downlink packets out to all candidate APs (§3.1.2). False
    #: sends only to the serving AP — handovers then start cold, which
    #: is what the cyclic-queue pre-placement design exists to avoid.
    fanout_enabled: bool = True

    #: Statistic the selector compares across APs: "median" (paper),
    #: "mean", or "latest".
    selection_metric: str = "median"

    @property
    def cyclic_queue_size(self) -> int:
        return 1 << self.index_bits
