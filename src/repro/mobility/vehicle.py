"""Vehicle (client) mobility models.

The paper's experiments drive clients past the AP array at constant
speeds from 0 (static) to 35 mph, alone or in small groups (following
at 3 m spacing, parallel in adjacent lanes, or in opposing directions).
A :class:`VehicleTrack` answers "where is this client at time t?" —
the channel model samples it lazily, so no per-tick events are needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mobility.road import MPH_TO_MPS, Position, Road
from repro.sim.engine import SECOND


@dataclass
class VehicleTrack:
    """Constant-velocity motion along the road.

    Parameters
    ----------
    start_x:
        Position along the road (metres) at ``start_time_us``.
    speed_mph:
        Constant speed; zero models the parked/static client.
    direction:
        +1 drives towards increasing x (near lane), -1 the opposite way
        (far lane). The lane's lateral offset comes from the road.
    antenna_height_m:
        Height of the client's antenna above the road surface.
    """

    road: Road
    start_x: float
    speed_mph: float
    direction: int = 1
    start_time_us: int = 0
    antenna_height_m: float = 1.5

    def __post_init__(self) -> None:
        if self.direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")
        if self.speed_mph < 0:
            raise ValueError("speed must be non-negative")

    @property
    def speed_mps(self) -> float:
        """Speed in metres per second."""
        return self.speed_mph * MPH_TO_MPS

    def position_at(self, time_us: int) -> Position:
        """Client position at an absolute simulation time."""
        elapsed_s = (time_us - self.start_time_us) / SECOND
        x = self.start_x + self.direction * self.speed_mps * elapsed_s
        return Position(x, self.road.lane_y(self.direction), self.antenna_height_m)

    def time_to_reach_x(self, x: float) -> int:
        """Absolute time (us) at which the client passes coordinate ``x``.

        Raises ``ValueError`` for a static client or a coordinate behind
        the direction of travel.
        """
        if self.speed_mph == 0:
            raise ValueError("static client never moves")
        distance = (x - self.start_x) * self.direction
        if distance < 0:
            raise ValueError(f"x={x} is behind the direction of travel")
        return self.start_time_us + int(distance / self.speed_mps * SECOND)

    def transit_duration_us(self) -> int:
        """Time to traverse the full modelled road segment."""
        if self.speed_mph == 0:
            raise ValueError("static client has no transit duration")
        return int(self.road.length_m / self.speed_mps * SECOND)

