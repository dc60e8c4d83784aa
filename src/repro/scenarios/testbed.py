"""The roadside testbed (paper §4, Figure 9), fully assembled.

Eight APs behind third-floor windows overlooking a 25 mph side road,
7.5 m apart, each with a 14 dBi / 21° parabolic antenna aimed at the
road; an Ethernet backhaul; a controller (WGTT) or a thin WLC
(Enhanced 802.11r); and one or more vehicular clients. This module
builds the whole thing from a :class:`TestbedConfig` and exposes flow
attachment and run helpers — every experiment driver goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.baselines.enhanced_80211r import (
    Baseline80211rAp,
    BaselineWlc,
    RoamingClientAgent,
    RoamingConfig,
)
from repro.channel.antenna import OmniAntenna, ParabolicAntenna
from repro.channel.link import ChannelMap, RadioPort
from repro.core.access_point import WgttAccessPoint
from repro.core.config import BSSID, WgttConfig
from repro.core.controller import WgttController
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.mac.medium import WirelessMedium
from repro.mac.wifi_device import WifiDevice
from repro.mobility.road import Position, Road
from repro.mobility.spatial import ApGridIndex
from repro.mobility.vehicle import VehicleTrack
from repro.net.backhaul import EthernetBackhaul
from repro.net.packet import IpIdAllocator, Packet
from repro.obs.context import ObsConfig, ObsContext
from repro.obs.metrics import metric_key
from repro.phy import per as phy_per
from repro.phy.esnr import effective_snr_db
from repro.shard.config import ShardConfig
from repro.shard.manager import Shard, ShardManager, plan_regions
from repro.sim.engine import MS, SECOND, Simulator
from repro.sim.rng import RngRegistry
from repro.transport.flows import Host
from repro.transport.tcp import TcpReceiver, TcpSender
from repro.transport.udp import UdpSink, UdpSource

if TYPE_CHECKING:
    from repro.ha.standby import StandbyController
    from repro.invariants import InvariantChecker

#: Default AP x-positions: 7.5 m spacing as measured in §2.
DEFAULT_AP_SPACING_M = 7.5
DEFAULT_FIRST_AP_X = 10.0
#: AP mounts: behind third-floor windows, set back from the road.
AP_SETBACK_M = 12.0
AP_HEIGHT_M = 10.0
#: Effective beamwidth of the deployed antenna. The Laird panel is
#: nominally 21°, but the paper's *measured* cell size (5.2 m at a
#: 7.5 m AP spacing, §2) implies a much narrower effective beam —
#: the third-floor window aperture clips the lobe. 10° reproduces
#: the measured footprint and the between-cell ESNR dips of Fig 2.
AP_BEAMWIDTH_DEG = 10.0
AP_TX_POWER_DBM = 20.0
CLIENT_TX_POWER_DBM = 15.0

#: One-way latency modelling the in-building content server (§5.1
#: caches content locally to exclude Internet latency).
SERVER_LATENCY_US = 1 * MS


@dataclass
class TestbedConfig:
    """Everything needed to instantiate a testbed run."""

    # Not a pytest test class despite the name.
    __test__ = False

    seed: int = 1
    #: "wgtt" or "baseline" (Enhanced 802.11r).
    scheme: str = "wgtt"
    num_aps: int = 8
    #: Explicit AP x-positions override the uniform spacing.
    ap_positions_m: Optional[List[float]] = None
    ap_spacing_m: float = DEFAULT_AP_SPACING_M
    first_ap_x_m: float = DEFAULT_FIRST_AP_X
    #: One entry per client. Ignored when ``client_tracks`` is given.
    client_speeds_mph: List[float] = field(default_factory=lambda: [15.0])
    #: Clients start just inside the first AP's coverage flank, the way
    #: the paper's measured transits begin.
    client_start_x_m: float = 4.0
    client_tracks: Optional[List[VehicleTrack]] = None
    wgtt: WgttConfig = field(default_factory=WgttConfig)
    roaming: RoamingConfig = field(default_factory=RoamingConfig)
    #: Associate clients instantly at t=0 (experiments assume an
    #: already-admitted commuter device); False exercises the real
    #: over-the-air association path.
    instant_association: bool = True
    #: Clients emit an 802.11 NULL-frame keepalive when their radio has
    #: been silent this long (real stations do this for power
    #: management / presence). These uplink frames are what keeps CSI
    #: flowing to the WGTT controller when transport goes quiet.
    client_keepalive_us: int = 50_000
    #: Wi-Fi channel per AP. None (the paper's deployment) puts every
    #: AP on channel 11. The §7 multi-channel ablation assigns e.g.
    #: [1, 6, 11, 1, 6, 11, ...]; clients retune to their serving AP's
    #: channel on every switch, and cross-channel overhearing — hence
    #: uplink diversity and BA forwarding — disappears.
    channel_plan: Optional[List[int]] = None
    #: Optional chaos schedule (``repro.faults``). When set, a
    #: :class:`FaultInjector` is built and armed at construction, so
    #: the plan's crashes/partitions/jitter fire during the run.
    fault_plan: Optional["FaultPlan"] = None
    #: Observability switches (tracing / detail / profiling).  None
    #: builds the default everything-off context — the configuration
    #: under which runs are bit-identical to the pre-obs tree.
    obs: Optional[ObsConfig] = None
    #: Set to partition the corridor into AP-cluster shards, each owned
    #: by its own controller, with inter-shard client handoff
    #: (``repro.shard``): shard count and boundary hysteresis.
    #: None (the default) is the paper's deployment, one region under
    #: one controller.
    shard: Optional[ShardConfig] = None

    def ap_channel(self, index: int) -> int:
        if self.channel_plan is None:
            return 11
        return self.channel_plan[index % len(self.channel_plan)]

    def ap_xs(self) -> List[float]:
        """AP x-positions, memoized on the geometry inputs.

        Derived per call historically; at city scale (hundreds of APs,
        consulted by region planning, road sizing and the spatial
        index) the rebuild cost adds up, so the list is cached against
        the fields it derives from and invalidated when they change.
        """
        key = (
            None
            if self.ap_positions_m is None
            else tuple(self.ap_positions_m),
            self.num_aps,
            self.ap_spacing_m,
            self.first_ap_x_m,
        )
        cached: Optional[Tuple[object, Tuple[float, ...]]] = getattr(
            self, "_ap_xs_cache", None
        )
        if cached is not None and cached[0] == key:
            return list(cached[1])
        if self.ap_positions_m is not None:
            xs = list(self.ap_positions_m)
        else:
            xs = [
                self.first_ap_x_m + i * self.ap_spacing_m
                for i in range(self.num_aps)
            ]
        self._ap_xs_cache = (key, tuple(xs))
        return xs

    def road_length_m(self) -> float:
        return self.ap_xs()[-1] + self.first_ap_x_m


class ClientNode:
    """A vehicular client: radio + mobility + host stack."""

    def __init__(
        self,
        testbed: "Testbed",
        index: int,
        track: VehicleTrack,
        client_id: Optional[str] = None,
    ):
        self.client_id = client_id or f"client{index}"
        self.track = track
        self.testbed = testbed
        self.retired = False
        config = testbed.config
        testbed.channel.register_port(
            RadioPort(
                self.client_id,
                OmniAntenna(),
                CLIENT_TX_POWER_DBM,
                track.position_at,
                lambda: track.speed_mps,
            )
        )
        self.device = WifiDevice(
            testbed.sim,
            testbed.medium,
            testbed.rng,
            self.client_id,
            role="client",
        )
        self.host = Host(self.client_id)
        self.device.on_packet = lambda packet, src: self.host.deliver(packet)
        self.agent: Optional[RoamingClientAgent] = None
        if config.scheme == "baseline":
            self.agent = RoamingClientAgent(
                testbed.sim, self.device, config.roaming
            )
        self._ip_ids = IpIdAllocator()
        self.uplink_dropped = 0
        self.keepalives_sent = 0
        interval = config.client_keepalive_us
        if interval > 0:
            from repro.sim.engine import Timer

            def keepalive_tick():
                if (
                    testbed.sim.now - self.device.last_tx_us >= interval
                    and not self.device.dcf.busy
                ):
                    null = Packet(
                        src=self.client_id,
                        dst="server",
                        size_bytes=36,
                        protocol="udp",
                        flow_id="keepalive",
                        created_us=testbed.sim.now,
                    )
                    null.meta["keepalive"] = True
                    self.keepalives_sent += 1
                    self.send_uplink(null)
                self._keepalive_timer.start(interval)

            self._keepalive_timer = Timer(testbed.sim, keepalive_tick)
            self._keepalive_timer.start(interval)

    def retire(self) -> None:
        """Stop every self-rearming activity this node owns.

        Without this the keepalive timer reschedules itself forever —
        one leaked timer per departed rider is exactly the unbounded
        growth a churn soak exists to catch.
        """
        self.retired = True
        timer = getattr(self, "_keepalive_timer", None)
        if timer is not None:
            timer.stop()

    def send_uplink(self, packet: Packet) -> None:
        """Hand a locally generated datagram to the radio."""
        packet.ip_id = self._ip_ids.allocate(self.client_id)
        if self.agent is not None:
            peer = self.agent.uplink_peer()
            if peer is None:
                self.uplink_dropped += 1
                return
        else:
            peer = BSSID
        self.device.enqueue(packet, peer)


class Testbed:
    """A fully wired simulation instance.

    The constructor builds it in five stages — substrate, AP bank,
    control plane, clients, faults — and that order is a contract: RNG
    streams are created, backhaul nodes registered and timers armed in
    it, so reordering the stages changes every run's bytes
    (``tests/test_controller_state.py`` pins them).  Each stage
    registers what it built with the metrics registry
    (``component.collect_metrics``): the component decides which
    numbers it publishes, the stage that creates it wires it in.
    """

    # Not a pytest test class despite the name.
    __test__ = False

    def __init__(self, config: TestbedConfig):
        if config.scheme not in ("wgtt", "baseline"):
            raise ValueError(f"unknown scheme {config.scheme!r}")
        if config.scheme == "baseline":
            # Like ``shard`` and ``fault_plan``: a WGTT-only setting is
            # refused, never silently ignored.
            default = WgttConfig()
            changed = [
                f.name
                for f in fields(default)
                if getattr(config.wgtt, f.name) != getattr(default, f.name)
            ]
            if changed:
                raise ValueError(
                    "the baseline scheme takes no WGTT settings; "
                    f"non-default wgtt fields: {', '.join(changed)}"
                )
        self.config = config
        regions = plan_regions(config)

        # -- substrate: engine, RNG, road, channel, medium, backhaul,
        # server.
        self.obs = ObsContext(config.obs)
        self.sim = Simulator(obs=self.obs)
        self.rng = RngRegistry(config.seed)
        self.road = Road(length_m=config.road_length_m())
        self.channel = ChannelMap(self.sim, self.rng)
        self.medium = WirelessMedium(self.sim, self.channel)
        self.backhaul = EthernetBackhaul(self.sim)
        self.server_host = Host("server")
        self._server_ip_ids = IpIdAllocator()
        register = self.obs.metrics.register_collector
        register(self.backhaul.collect_metrics)
        register(self.medium.collect_metrics)
        register(self.sim.collect_metrics)
        register(phy_per.collect_metrics)

        # -- AP bank: radio port + antenna per AP, corridor order (the
        # regions tile it, so ``ap{i}`` is the i-th x-position).
        self.ap_ids: List[str] = []
        self.ap_positions: Dict[str, Position] = {}
        #: Uniform-grid spatial index every nearest-AP query runs on.
        self.ap_index = ApGridIndex()
        for index, x in enumerate(config.ap_xs()):
            ap_id = f"ap{index}"
            mount = Position(x, -AP_SETBACK_M, AP_HEIGHT_M)
            antenna = ParabolicAntenna(
                mount=mount,
                boresight=Position(x, 0.0, 1.5),
                beamwidth_deg=AP_BEAMWIDTH_DEG,
            )
            self.channel.register_port(
                RadioPort(
                    ap_id,
                    antenna,
                    AP_TX_POWER_DBM,
                    lambda t, m=mount: m,
                    fixed_position=mount,
                )
            )
            self.ap_ids.append(ap_id)
            self.ap_positions[ap_id] = mount
            self.ap_index.add(ap_id, mount)

        # -- control plane.
        #: One control plane per WGTT region, corridor order: controller,
        #: its APs, warm standby when ``wgtt.ha_enabled``.  One entry for
        #: the paper's deployment, none for the baseline scheme.  Whatever
        #: walks the control plane reads this; ``controller`` /
        #: ``standby`` are the single region's, for the many drivers
        #: that only ever meet one.
        self.shards: List[Shard] = []
        #: What only a corridor of several regions needs: owner map,
        #: boundary scan, inter-shard handoff (``config.shard`` set).
        self.shard_manager: Optional[ShardManager] = None
        #: Every WGTT AP across all regions (``Shard.aps`` is the local
        #: view); each ``Shard`` adds its own as it builds them.
        self.wgtt_aps: Dict[str, WgttAccessPoint] = {}
        self.wlc: Optional[BaselineWlc] = None
        self.baseline_aps: Dict[str, Baseline80211rAp] = {}
        #: Server-side downlink ingress: the shard manager, else the
        #: region, else the baseline WLC.
        self._ingress: Callable[[Packet], None]
        if config.scheme != "wgtt":
            self.wlc = BaselineWlc(self.sim, self.backhaul)
            self.wlc.on_uplink = self.deliver_uplink
            self._ingress = self.wlc.accept_downlink
            for index, ap_id in enumerate(self.ap_ids):
                ap = Baseline80211rAp(
                    self.sim, self.medium, self.backhaul, self.rng, ap_id
                )
                ap.device.channel = config.ap_channel(index)
                self.baseline_aps[ap_id] = ap
                self.wlc.add_ap(ap_id)
        elif config.shard is not None:
            manager = self.shard_manager = ShardManager(self, regions)
            self.shards = manager.shards
            self._ingress = manager.accept_downlink
            register(manager.collect_metrics)
        else:
            (region,) = regions
            shard = Shard(self, region)
            self.shards = [shard]
            self._ingress = shard.accept_downlink
            register(shard.collect_metrics)
            for ap in shard.aps.values():
                register(ap.collect_metrics)
        if config.channel_plan is not None:
            for shard in self.shards:
                for ctrl in shard.controllers():
                    ctrl.on_serving_update = self._retune_client

        # -- clients: radio, host stack, keepalives; churn bookkeeping;
        # instant association.
        tracks = config.client_tracks
        if tracks is None:
            tracks = [
                VehicleTrack(
                    self.road,
                    start_x=config.client_start_x_m,
                    speed_mph=speed,
                )
                for speed in config.client_speeds_mph
            ]
        self.clients = [
            ClientNode(self, index, track)
            for index, track in enumerate(tracks)
        ]
        self._next_client_index = len(self.clients)
        #: Retired ids live here until their deferred radio teardown
        #: fires (see :meth:`retire_client`).
        self._retiring: Dict[str, ClientNode] = {}
        self.clients_retired = 0
        register(self.collect_metrics)
        if config.instant_association:
            for client in self.clients:
                self._associate_instantly(client)

        # -- faults: armed only when a plan is set.
        self.fault_injector: Optional[FaultInjector] = None
        #: Installed by :meth:`install_invariant_checker`; None keeps
        #: the trace stream dormant and the run byte-identical.
        self.invariant_checker: Optional["InvariantChecker"] = None
        if config.fault_plan is not None:
            self.install_fault_plan(config.fault_plan)

    @property
    def _sole_region(self) -> Optional[Shard]:
        return self.shards[0] if len(self.shards) == 1 else None

    @property
    def controller(self) -> Optional[WgttController]:
        region = self._sole_region
        return region.controller if region is not None else None

    @property
    def standby(self) -> Optional["StandbyController"]:
        region = self._sole_region
        return region.standby if region is not None else None

    def _retune_client(self, client_id: str, ap_id: str) -> None:
        """Multi-channel ablation glue: a switch retunes the client."""
        index = self.ap_ids.index(ap_id)
        for client in self.clients:
            if client.client_id == client_id:
                client.device.channel = self.config.ap_channel(index)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def collect_metrics(self) -> Dict[str, object]:
        """The testbed's own share of the metrics snapshot: per-client
        node counters.  Every other key is published by the component
        that owns it and registered by the construction stage that
        creates it."""
        out: Dict[str, object] = {}
        for client in self.clients:
            cid = client.client_id
            out[metric_key("client_uplink_dropped", client=cid)] = (
                client.uplink_dropped
            )
            out[metric_key("client_keepalives_sent", client=cid)] = (
                client.keepalives_sent
            )
        return out

    def retiring_count(self) -> int:
        """Retired clients whose radio teardown has not fired yet."""
        return len(self._retiring)

    def _associate_instantly(self, client: ClientNode) -> None:
        if self.shard_manager is not None:  # it picks the region first
            self.shard_manager.associate_instantly(client)
            return
        position = client.track.position_at(self.sim.now)
        region = self._sole_region
        if region is not None:
            region.associate(client.client_id, position)
        else:  # the baseline scheme
            first_ap = self.ap_index.nearest(position)
            assert first_ap is not None  # the AP bank is never empty
            client.agent.record_association(first_ap)
            self.wlc.record_association(client.client_id, first_ap)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def install_fault_plan(self, plan: FaultPlan) -> FaultInjector:
        """Arm a chaos schedule against this testbed (WGTT only)."""
        if self.config.scheme != "wgtt":
            raise ValueError("fault injection targets the WGTT scheme")
        self.fault_injector = FaultInjector(self, plan)
        self.fault_injector.arm()
        self.obs.metrics.register_collector(
            self.fault_injector.collect_metrics
        )
        return self.fault_injector

    def install_invariant_checker(self):
        """Arm the runtime protocol-invariant checker (WGTT only): an
        :class:`~repro.invariants.InvariantChecker` with its defaults (a
        corridor of several regions gets the subclass that also watches
        ownership).

        Subscribing flips the tracer's ``active`` flag, so emit sites
        start producing — protocol behaviour is unchanged (emission
        draws no randomness), but runs are no longer trace-dormant.
        """
        if self.config.scheme != "wgtt":
            raise ValueError("the invariant checker targets the WGTT scheme")
        if self.invariant_checker is not None:
            raise RuntimeError("invariant checker already installed")
        from repro.invariants import InvariantChecker, ShardInvariantChecker

        checker = (
            InvariantChecker if self.shard_manager is None
            else ShardInvariantChecker
        )(self)
        checker.start()
        self.obs.metrics.register_collector(checker.collect_metrics)
        self.invariant_checker = checker
        return checker

    def active_controller(self) -> Optional[WgttController]:
        """The controller currently owning the single region's control
        plane (None mid-failover, and for any other topology)."""
        region = self._sole_region
        return region.active_controller() if region is not None else None

    def depart_client(self, client_id: str) -> bool:
        """Deregister a client everywhere (commuter leaves the bus).

        Takes the client's id, not its position in :attr:`clients`:
        positions shift as other clients retire.  False when a control
        plane that should have heard it was down: the caller comes back
        (the soak's churn driver parks and retries).
        """
        if self.shard_manager is not None:
            return self.shard_manager.depart_client(client_id)
        heard = [shard.depart(client_id) for shard in self.shards]
        return all(heard)

    # ------------------------------------------------------------------
    # client churn (soak extension)
    # ------------------------------------------------------------------

    #: How long after retirement the radio port is actually torn down.
    #: The medium replays its recent transmission history (20 ms) for
    #: interference, and in-flight backhaul fan-outs may still name the
    #: client; tearing the port down under them would fault.  50 ms
    #: clears both horizons with margin.
    RETIRE_TEARDOWN_DELAY_US = 50_000

    def client_by_id(self, client_id: str) -> Optional[ClientNode]:
        for client in self.clients:
            if client.client_id == client_id:
                return client
        return None

    def add_client(
        self,
        track: VehicleTrack,
        client_id: Optional[str] = None,
    ) -> ClientNode:
        """Mid-run arrival: a new vehicle enters the road.

        Builds the full client node (radio port, Wi-Fi device, host,
        keepalives) and — under ``instant_association`` — admits it to
        the array exactly like a t=0 client, homed on the nearest
        *live* AP.  Ids must be fresh: the channel map and backhaul
        reject duplicates by design.
        """
        index = self._next_client_index
        self._next_client_index += 1
        client = ClientNode(self, index, track, client_id=client_id)
        self.clients.append(client)
        if self.config.instant_association:
            self._associate_instantly(client)
        return client

    def retire_client(self, client_id: str) -> None:
        """Mid-run departure: tear down one client's local footprint.

        The caller is responsible for protocol-level deregistration
        (:meth:`depart_client`) *before* retiring — this method frees
        the simulation-side resources: keepalive timer, radio power,
        membership in :attr:`clients`, and (deferred past the
        interference-history horizon) the medium registration and the
        channel map's port and links.
        """
        client = self.client_by_id(client_id)
        if client is None:
            return
        client.retire()
        client.device.power_off()
        self.clients.remove(client)
        self._retiring[client_id] = client
        self.clients_retired += 1

        def teardown() -> None:
            self._retiring.pop(client_id, None)
            self.medium.unregister(client_id)
            self.channel.forget_port(client_id)

        self.sim.schedule(self.RETIRE_TEARDOWN_DELAY_US, teardown)

    # ------------------------------------------------------------------
    # traffic plumbing
    # ------------------------------------------------------------------

    def deliver_uplink(self, packet: Packet) -> None:
        """Server-side egress of the control plane: hand a
        de-duplicated uplink packet to the server after its latency."""
        if packet.meta.get("keepalive"):
            return  # NULL frames carry no payload for the server
        tracer = self.sim.obs.trace
        if tracer.active:
            # Post-dedup server ingress: the invariant checker audits
            # this stream for duplicate keys that escaped suppression.
            tracer.emit(
                "testbed",
                "uplink-deliver",
                track="server",
                detail=True,
                key=packet.dedup_key(),
                src=packet.src,
                ip_id=packet.ip_id,
                protocol=packet.protocol,
            )
        self.sim.schedule(
            SERVER_LATENCY_US, lambda: self.server_host.deliver(packet)
        )

    def send_downlink(self, packet: Packet) -> None:
        """Server-side ingress: tag IP-ID, add server latency, route."""
        packet.ip_id = self._server_ip_ids.allocate(packet.src)
        ingress = self._ingress
        self.sim.schedule(SERVER_LATENCY_US, lambda: ingress(packet))

    def add_downlink_tcp_flow(
        self,
        client_index: int = 0,
        flow_id: Optional[str] = None,
        bulk: bool = True,
    ) -> Tuple[TcpSender, TcpReceiver]:
        """Server-to-client TCP; ``bulk=False`` makes the sender
        app-limited (it sends what :meth:`TcpSender.supply` offers)."""
        client = self.clients[client_index]
        flow_id = flow_id or f"tcp-dl-{client.client_id}"
        sender = TcpSender(
            self.sim,
            "server",
            client.client_id,
            self.send_downlink,
            flow_id,
            bulk=bulk,
        )
        receiver = TcpReceiver(
            self.sim, client.client_id, "server", client.send_uplink, flow_id
        )
        self.server_host.attach_tcp_sender(sender)
        client.host.attach_tcp_receiver(receiver)
        return sender, receiver

    def add_uplink_tcp_flow(
        self, client_index: int = 0
    ) -> Tuple[TcpSender, TcpReceiver]:
        client = self.clients[client_index]
        flow_id = f"tcp-ul-{client.client_id}"
        sender = TcpSender(
            self.sim, client.client_id, "server", client.send_uplink, flow_id
        )
        receiver = TcpReceiver(
            self.sim, "server", client.client_id, self.send_downlink, flow_id
        )
        client.host.attach_tcp_sender(sender)
        self.server_host.attach_tcp_receiver(receiver)
        return sender, receiver

    def add_downlink_udp_flow(
        self,
        client_index: int = 0,
        rate_bps: float = 15e6,
        flow_id: Optional[str] = None,
    ) -> Tuple[UdpSource, UdpSink]:
        client = self.clients[client_index]
        flow_id = flow_id or f"udp-dl-{client.client_id}"
        source = UdpSource(
            self.sim,
            "server",
            client.client_id,
            rate_bps,
            self.send_downlink,
            flow_id,
        )
        sink = UdpSink(self.sim, flow_id)
        client.host.attach_udp_sink(sink)
        return source, sink

    def add_uplink_udp_flow(
        self,
        client_index: int = 0,
        rate_bps: float = 15e6,
        flow_id: Optional[str] = None,
    ) -> Tuple[UdpSource, UdpSink]:
        client = self.clients[client_index]
        flow_id = flow_id or f"udp-ul-{client.client_id}"
        source = UdpSource(
            self.sim,
            client.client_id,
            "server",
            rate_bps,
            client.send_uplink,
            flow_id,
        )
        sink = UdpSink(self.sim, flow_id)
        self.server_host.attach_udp_sink(sink)
        return source, sink

    # ------------------------------------------------------------------
    # running and ground truth
    # ------------------------------------------------------------------

    def run_seconds(self, seconds: float) -> None:
        self.sim.run(until_us=self.sim.now + int(seconds * SECOND))

    def run_until(self, time_us: int) -> None:
        self.sim.run(until_us=time_us)

    def transit_duration_us(self, client_index: int = 0) -> int:
        return self.clients[client_index].track.transit_duration_us()

    def best_ap_ground_truth(self, client_index: int, time_us: int) -> str:
        """The AP with the instantaneously best ESNR (oracle knowledge,
        used only by the accuracy metric — never by the protocols)."""
        client_id = self.clients[client_index].client_id
        best_ap, best_esnr = None, -1e9
        for ap_id in self.ap_ids:
            link = self.channel.link(ap_id, client_id)
            esnr = effective_snr_db(
                link.probe_subcarrier_snr_db(time_us, tx_id=ap_id)
            )
            if esnr > best_esnr:
                best_ap, best_esnr = ap_id, esnr
        return best_ap

    def serving_ap_of(self, client_index: int) -> Optional[str]:
        client_id = self.clients[client_index].client_id
        if self.shard_manager is not None:
            return self.shard_manager.serving_ap(client_id)
        region = self._sole_region
        if region is not None:
            active = region.active_controller() or region.controller
            return active.serving_ap(client_id)
        agent = self.clients[client_index].agent
        return agent.current_ap if agent else None

