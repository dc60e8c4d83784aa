"""Controller high availability: the checkpoint envelope, the warm
standby (:mod:`repro.ha.standby`) and the in-process cluster glue
(:mod:`repro.ha.cluster`) — this repo's extension beyond the paper
(§6 names the central controller as the single point of failure a
deployment would have to engineer around).

Only the checkpoint envelope is re-exported here: the controller
imports it, and the standby and cluster import the controller.
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
