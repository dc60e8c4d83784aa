"""Road geometry and vehicular client mobility."""

from repro.mobility.road import MPH_TO_MPS, Position, Road, mph
from repro.mobility.vehicle import VehicleTrack

__all__ = [
    "MPH_TO_MPS",
    "Position",
    "Road",
    "mph",
    "VehicleTrack",
]
