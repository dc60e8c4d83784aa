"""Sharded-deployment tunables.

One :class:`ShardConfig` governs how a corridor testbed is partitioned
into contiguous AP-cluster shards (each owned by its own
``WgttController``) and how the inter-shard client handoff protocol
behaves.  Setting ``TestbedConfig.shard`` *is* the switch: ``None``
(the default) is the paper's one region under the classic
``"controller"`` id.  Whether a region gets a warm standby is not a
sharding question — ``WgttConfig.ha_enabled`` says so for every region.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ShardConfig:
    """Tunables of the sharded control plane."""

    #: Contiguous shards the AP corridor is partitioned into.  APs are
    #: split as evenly as possible, earlier shards taking the remainder.
    num_shards: int = 2

    #: How far past a shard boundary a client must travel before a
    #: handoff fires.  Suppresses ping-pong for clients dawdling on the
    #: boundary line.
    boundary_hysteresis_m: float = 2.0

    def controller_id(self, shard: int) -> str:
        """Backhaul id of shard ``shard``'s primary controller."""
        return f"controller-s{shard}"

    def standby_id(self, shard: int) -> str:
        """Backhaul id of shard ``shard``'s warm standby (built when
        ``WgttConfig.ha_enabled``)."""
        return f"standby-s{shard}"
