"""Controller high availability: the checkpoint envelope and the warm
standby (:mod:`repro.ha.standby`) — this repo's extension beyond the
paper (§6 names the central controller as the single point of failure
a deployment would have to engineer around).  The pair's glue —
checkpoint shipping, ingress to the active controller, the role hooks —
belongs to the region (:class:`repro.shard.manager.Shard`).

Only the checkpoint envelope is re-exported here: the controller
imports it, and the standby imports the controller.
"""

from repro.ha.checkpoint import (
    CHECKPOINT_VERSION,
    CLIENT_STATE_VERSION,
    ControllerCheckpoint,
    canonical_json,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CLIENT_STATE_VERSION",
    "ControllerCheckpoint",
    "canonical_json",
]
