"""Per-pair radio links: geometry + antennas + path loss + fading.

A :class:`Link` answers the question every other layer asks of the
channel: *if node A transmits to node B at time t, what per-subcarrier
SNR does B see?* It combines

* the transmit power of the sender,
* both antenna gains along the current geometry (the client moves,
  so gains are re-evaluated from the mobility model at every sample),
* log-distance path loss, and
* the tapped Rayleigh fading process, evolved lazily to ``t``.

The fading taps are shared between the two directions of a pair —
TDD channel reciprocity — which is precisely the property WGTT relies
on when it predicts *downlink* deliverability from *uplink* CSI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.channel.antenna import Antenna
from repro.channel.fading import (
    TappedRayleighChannel,
    coherence_time_us,
    doppler_hz,
)
from repro.channel.pathloss import LogDistancePathLoss
from repro.mobility.road import Position
from repro.phy.ber import linear_to_db
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

#: Thermal noise over 20 MHz plus a 7 dB receiver noise figure.
NOISE_FLOOR_DBM = -94.0
#: Added to the power bound: the exact budget sums the same terms in
#: another order and reads its angles from ``acos``, not ``atan``.
BOUND_SLACK_DB = 1e-9
#: The one large-scale loss model every link uses.
PATHLOSS = LogDistancePathLoss()


@dataclass
class RadioPort:
    """One radio endpoint (an AP's antenna port or a client device).

    ``position_fn`` maps absolute simulation time to a position, so a
    static AP passes a constant and a vehicle passes its track's
    ``position_at``. ``speed_mps_fn`` feeds the Doppler model.
    """

    node_id: str
    antenna: Antenna
    tx_power_dbm: float
    position_fn: Callable[[int], Position]
    speed_mps_fn: Callable[[], float] = field(default=lambda: 0.0)
    #: Declared by radios that never move (AP mounts): lets the medium
    #: index them by x and the channel map memoise fixed↔fixed budgets.
    fixed_position: Optional[Position] = None
    #: One-slot position memo.  A client port is shared by every link
    #: that involves the client, so when a frame completes, the mobility
    #: model is evaluated once per timestamp instead of once per link.
    _pos_time: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )
    _pos_cache: Optional[Position] = field(
        default=None, init=False, repr=False, compare=False
    )

    def position_at(self, time_us: int) -> Position:
        if self._pos_time == time_us:
            return self._pos_cache
        pos = self.position_fn(time_us)
        self._pos_time = time_us
        self._pos_cache = pos
        return pos


def _mean_snr_db(
    tx_dbm: float, ap: RadioPort, client: RadioPort, time_us: int
) -> float:
    """The fading-free link budget, ``ap`` / ``client`` in id order.
    One expression for :class:`Link` and the link-free
    :meth:`ChannelMap.mean_rx_power_dbm`: float addition is not
    associative, and the two must agree to the bit."""
    ap_pos = ap.position_at(time_us)
    client_pos = client.position_at(time_us)
    return (
        tx_dbm
        + ap.antenna.gain_dbi(client_pos)
        + client.antenna.gain_dbi(ap_pos)
        - PATHLOSS.loss_db(ap_pos.distance_to(client_pos))
        - NOISE_FLOOR_DBM
    )


class Link:
    """The radio channel between one AP port and one client port."""

    def __init__(
        self,
        sim: Simulator,
        rng: RngRegistry,
        ap: RadioPort,
        client: RadioPort,
    ):
        self._sim = sim
        self.ap = ap
        self.client = client
        self._fading = TappedRayleighChannel(
            rng.stream(f"fading/{ap.node_id}/{client.node_id}")
        )
        self._cache_time: Optional[int] = None
        self._cache_power: Optional[np.ndarray] = None
        # Per-(time, tx power) cache of the assembled SNR snapshot.  A
        # completion asks for the same snapshot from several layers
        # (medium, CSI path, PHY memos); returning one stable array
        # object lets the identity memos in repro.phy.per hit, and is
        # the hand-off point the fused batch path
        # (repro.channel.link_batch) seeds.
        self._snr_key: Optional[Tuple[int, float]] = None
        self._snr_cache: Optional[np.ndarray] = None
        # scalar memo keyed on (time_us, tx_power_dbm): the geometry
        # terms, re-asked several times per event (medium decode check,
        # interference terms, CSI path).  It holds a handful of entries rather than one:
        # the interference scan samples the *start* times of every
        # overlapping transmission, and those keys recur across the
        # completions in a busy window — a single slot thrashes.
        self._mean_snr_cache: Dict[Tuple[Optional[int], float], float] = {}
        #: Neither end moves: one budget per direction, whatever the time.
        self._static = (
            ap.fixed_position is not None and client.fixed_position is not None
        )
        self._coh_speed: Optional[float] = None
        self._coh_us: float = 0.0

    def invalidate_geometry(self) -> None:
        """Drop the scalar geometry memos.

        The memos key on simulation time, which assumes positions are a
        pure function of time.  Drivers that *mutate* geometry at a
        fixed time (fig10 walks a probe client across a grid) must call
        :meth:`ChannelMap.invalidate_geometry` after each mutation.
        """
        self._mean_snr_cache.clear()
        self._snr_key = None

    # ------------------------------------------------------------------
    # large-scale terms
    # ------------------------------------------------------------------

    def _tx_power_dbm(self, tx_id: Optional[str]) -> float:
        if tx_id is None or tx_id == self.ap.node_id:
            return self.ap.tx_power_dbm
        if tx_id == self.client.node_id:
            return self.client.tx_power_dbm
        raise ValueError(f"{tx_id!r} is not an endpoint of this link")

    def mean_snr_db(self, time_us: int, tx_id: Optional[str] = None) -> float:
        """Average (fading-free) SNR of the link at ``time_us``.

        ``tx_id`` names the transmitter (either endpoint); ``None`` is
        the ``ap`` end.

        The geometry terms (positions, antenna gains, path loss) are
        memoized per ``(time_us, tx_power)`` — the medium asks for this
        several times per frame (decode check, interference, RSSI).
        """
        tx_dbm = self._tx_power_dbm(tx_id)
        key = (None if self._static else time_us, tx_dbm)
        cache = self._mean_snr_cache
        cached = cache.get(key)
        if cached is not None:
            return cached
        value = _mean_snr_db(tx_dbm, self.ap, self.client, time_us)
        if len(cache) >= 32:
            cache.clear()
        cache[key] = value
        return value

    def mean_rx_power_dbm(self, time_us: int, tx_id: Optional[str] = None) -> float:
        """Average received power — the RSSI legacy roaming decides on."""
        return self.mean_snr_db(time_us, tx_id) + NOISE_FLOOR_DBM

    # ------------------------------------------------------------------
    # small-scale terms
    # ------------------------------------------------------------------

    def _coherence_us(self) -> float:
        speed = max(self.ap.speed_mps_fn(), self.client.speed_mps_fn())
        # Speeds are constant for most of a run; memoize the Doppler /
        # coherence math on the speed value itself.
        if speed != self._coh_speed:
            doppler = doppler_hz(speed, PATHLOSS.wavelength_m)
            self._coh_speed = speed
            self._coh_us = coherence_time_us(doppler)
        return self._coh_us

    def _subcarrier_power(self, time_us: int) -> np.ndarray:
        """Fading power per subcarrier, evolved (and cached) for ``time_us``."""
        if self._cache_time != time_us:
            self._cache_power = self._fading.power_at(time_us, self._coherence_us())
            self._cache_time = time_us
        return self._cache_power

    def subcarrier_snr_db(
        self, time_us: int, tx_id: Optional[str] = None
    ) -> np.ndarray:
        """Per-subcarrier SNR (dB): the CSI-equivalent channel snapshot.

        Cached per ``(time_us, tx power)`` — repeated queries within one
        frame completion return the *same* array object, which the
        identity memos in :mod:`repro.phy.per` key on.  Treated as
        immutable by every consumer.
        """
        tx_dbm = self._tx_power_dbm(tx_id)
        key = (time_us, tx_dbm)
        cached = self._snr_cache
        if cached is not None and self._snr_key == key:
            return cached
        mean_db = self.mean_snr_db(time_us, tx_id)
        snapshot = mean_db + linear_to_db(self._subcarrier_power(time_us))
        self._snr_key = key
        self._snr_cache = snapshot
        return snapshot

    def _seed_snapshot(
        self,
        time_us: int,
        tx_dbm: float,
        power: np.ndarray,
        snapshot: np.ndarray,
    ) -> None:
        """Install a batch-computed snapshot into the per-link caches.

        Called by :mod:`repro.channel.link_batch` after a fused
        multi-link evolution; the arrays must be exactly what the
        scalar path would have produced (the fused path computes them
        with bit-identical kernels).
        """
        self._cache_time = time_us
        self._cache_power = power
        self._snr_key = (time_us, tx_dbm)
        self._snr_cache = snapshot

    def rssi_dbm(self, time_us: int, tx_id: Optional[str] = None) -> float:
        """Instantaneous wideband received power including fading."""
        power = self._subcarrier_power(time_us)
        fading_db = float(
            linear_to_db(float(np.add.reduce(power)) / power.shape[0])
        )
        return self.mean_rx_power_dbm(time_us, tx_id) + fading_db

    def probe_subcarrier_snr_db(
        self, time_us: int, tx_id: Optional[str] = None
    ) -> np.ndarray:
        """Side-effect-free channel probe for oracle metrics.

        Unlike :meth:`subcarrier_snr_db`, this does not advance the
        fading process or consume randomness — measuring ground truth
        never changes the experiment.
        """
        if self._cache_time == time_us:
            power = self._cache_power
        else:
            power = self._fading.peek_power_at(time_us, self._coherence_us())
        mean_db = self.mean_snr_db(time_us, tx_id)
        return mean_db + linear_to_db(power)


class ChannelMap:
    """Registry of every AP↔client link in a scenario.

    The MAC-layer medium pulls links from here to decide decode success
    and interference; the WGTT controller never touches it (it only
    sees CSI reports, like the real system).
    """

    def __init__(self, sim: Simulator, rng: RngRegistry):
        self._sim = sim
        self._rng = rng
        self._links: Dict[Tuple[str, str], Link] = {}
        self._ports: Dict[str, RadioPort] = {}
        #: per-endpoint index of instantiated links, maintained on link
        #: creation so ``links_for_client`` never scans the full map.
        self._links_by_port: Dict[str, List[Link]] = {}
        #: (tx_id, rx_id) -> mean received power, fixed↔fixed pairs only:
        #: the answer never changes, so it is kept for good.
        self._fixed_power: Dict[Tuple[str, str], float] = {}
        #: Bumped whenever a port's position may no longer be what an
        #: index built earlier saw (the medium re-indexes on a change).
        self.geometry_epoch = 0

    def register_port(self, port: RadioPort) -> None:
        if port.node_id in self._ports:
            raise ValueError(f"duplicate radio port id {port.node_id!r}")
        self._ports[port.node_id] = port

    def port(self, node_id: str) -> RadioPort:
        return self._ports[node_id]

    def port_count(self) -> int:
        """Registered radio ports (a bounded gauge under churn)."""
        return len(self._ports)

    def link(self, a_id: str, b_id: str) -> Link:
        """The (lazily created) link between any two radio ports.

        The pair key is order-normalized so ``link(a, b)`` and
        ``link(b, a)`` return the same object — the channel itself is
        reciprocal; only transmit power depends on direction.
        """
        if a_id == b_id:
            raise ValueError("a link needs two distinct endpoints")
        key = (a_id, b_id) if a_id <= b_id else (b_id, a_id)
        existing = self._links.get(key)
        if existing is None:
            existing = Link(
                self._sim,
                self._rng,
                self._ports[key[0]],
                self._ports[key[1]],
            )
            self._links[key] = existing
            self._links_by_port.setdefault(key[0], []).append(existing)
            self._links_by_port.setdefault(key[1], []).append(existing)
        return existing

    def mean_rx_power_dbm(self, tx_id: str, rx_id: str, time_us: int) -> float:
        """Fading-free power ``rx_id`` receives from ``tx_id``: the bits
        of ``link(tx_id, rx_id).mean_rx_power_dbm`` without instantiating
        a :class:`Link` (fading taps, RNG stream) -- most pairs the medium
        asks about are far below the noise floor and never need one."""
        pair = (tx_id, rx_id)
        link = self._links.get(pair if tx_id <= rx_id else (rx_id, tx_id))
        if link is not None:
            return link.mean_snr_db(time_us, tx_id=tx_id) + NOISE_FLOOR_DBM
        cached = self._fixed_power.get(pair)
        if cached is not None:
            return cached
        tx, rx = self._ports[tx_id], self._ports[rx_id]
        a, b = (tx, rx) if tx_id <= rx_id else (rx, tx)
        value = (
            _mean_snr_db(tx.tx_power_dbm, a, b, time_us)
            + NOISE_FLOOR_DBM
        )
        if tx.fixed_position is not None and rx.fixed_position is not None:
            self._fixed_power[pair] = value
        return value

    def mean_rx_power_bound_dbm(
        self, tx_id: str, rx_antenna: Antenna, min_dx: float, max_cross: float
    ) -> float:
        """Upper bound on :meth:`mean_rx_power_dbm` from ``tx_id`` to
        any receiver carrying ``rx_antenna`` at least ``min_dx`` metres
        along the road and at most ``max_cross`` across it; the 3-D
        distance is at least ``min_dx``, so the bound is non-increasing
        in it (``+inf`` when an antenna cannot bound its gain)."""
        tx = self._ports[tx_id]
        return (
            tx.tx_power_dbm
            + tx.antenna.gain_bound_dbi(min_dx, max_cross)
            + rx_antenna.gain_bound_dbi(min_dx, max_cross)
            - PATHLOSS.loss_db(min_dx)
            + BOUND_SLACK_DB
        )

    def invalidate_geometry(self) -> None:
        """Drop every position/geometry memo in the scenario.

        Required after mutating a mobility model in place at a fixed
        simulation time (see :meth:`Link.invalidate_geometry`).
        """
        self._fixed_power.clear()
        self.geometry_epoch += 1
        for port in self._ports.values():
            port._pos_time = None
            port._pos_cache = None
        for link in self._links.values():
            link.invalidate_geometry()

    def links_for_client(self, client_id: str):
        """All instantiated links that involve ``client_id``.

        Served from the per-endpoint index (O(links of this client))
        rather than a scan of every link in the scenario.
        """
        return list(self._links_by_port.get(client_id, ()))

    def forget_port(self, node_id: str) -> None:
        """Tear down one endpoint and every link touching it.

        Client churn needs this: a retired vehicle's RadioPort and its
        per-AP Links (fading streams, SNR memos) would otherwise pin
        memory forever — the same unbounded-growth class as
        ``IndexAllocator.forget_client``.  Callers must wait until the
        medium holds no in-flight transmission history naming the port
        (the testbed defers retirement past the interference-history
        horizon) or ``link()`` lookups on stale history would fail.
        """
        if node_id not in self._ports:
            return
        port = self._ports.pop(node_id)
        if port.fixed_position is not None:
            self._fixed_power.clear()
        self.geometry_epoch += 1
        gone = self._links_by_port.pop(node_id, [])
        for link in gone:
            peer = (
                link.ap.node_id
                if link.client.node_id == node_id
                else link.client.node_id
            )
            key = (
                (node_id, peer) if node_id <= peer else (peer, node_id)
            )
            self._links.pop(key, None)
            peer_links = self._links_by_port.get(peer)
            if peer_links is not None:
                peer_links[:] = [ln for ln in peer_links if ln is not link]
                if not peer_links:
                    del self._links_by_port[peer]
