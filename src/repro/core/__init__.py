"""WGTT core: the paper's contribution (controller + AP protocol suite)."""

from repro.core.access_point import WgttAccessPoint
from repro.core.assoc_sync import AssociationDirectory, StaInfo
from repro.core.ba_forwarding import BaSeenCache, ForwardedBa
from repro.core.config import WgttConfig
from repro.core.controller import WgttController
from repro.core.cyclic_queue import CyclicQueue, IndexAllocator
from repro.core.dedup import PacketDeduplicator
from repro.core.liveness import LivenessTracker
from repro.core.selection import ApSelector
from repro.core.switching import (
    AckMsg,
    FailoverMsg,
    StartMsg,
    StopMsg,
    SwitchCoordinator,
    SwitchRecord,
)

__all__ = [
    "WgttAccessPoint",
    "AssociationDirectory",
    "StaInfo",
    "BaSeenCache",
    "ForwardedBa",
    "WgttConfig",
    "WgttController",
    "CyclicQueue",
    "IndexAllocator",
    "PacketDeduplicator",
    "LivenessTracker",
    "ApSelector",
    "AckMsg",
    "FailoverMsg",
    "StartMsg",
    "StopMsg",
    "SwitchCoordinator",
    "SwitchRecord",
]
