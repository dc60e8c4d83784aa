"""Antenna gain patterns.

Each WGTT AP uses a 14 dBi Laird parabolic antenna with a 21-degree
half-power beamwidth, aimed at the road from a third-floor window. The
main lobe is the usual Gaussian (quadratic-in-dB) approximation; off
the main lobe the gain floors at a side-lobe level. The paper leans on
those side lobes twice: they give adjacent APs their 6–10 m coverage
overlap, and they weaken simultaneous client→AP ACKs enough that
link-layer ACK collisions are rare (Table 3).

Clients use low-gain omnidirectional antennas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.mobility.road import Position


class Antenna:
    """Interface: gain in dBi towards a target position."""

    def gain_dbi(self, target: Position) -> float:
        raise NotImplementedError

    def gain_bound_dbi(self, min_dx: float, max_cross: float) -> float:
        """Upper bound on :meth:`gain_dbi` over every target at least
        ``min_dx`` metres along the road (x) from the antenna and at
        most ``max_cross`` metres from it in the cross-road (y-z)
        plane, to within float rounding; non-increasing in ``min_dx``.
        ``+inf`` when no bound is known (the medium then walks every
        radio)."""
        return math.inf

    def bound_key(self) -> Optional[tuple]:
        """Hashable value that determines :meth:`gain_bound_dbi`
        (antennas with equal keys share one sound-radius solve)."""
        return None


@dataclass
class OmniAntenna(Antenna):
    """Uniform gain in all directions (client device antenna)."""

    peak_gain_dbi: float = 2.0

    def gain_dbi(self, target: Position) -> float:
        return self.peak_gain_dbi

    def gain_bound_dbi(self, min_dx: float, max_cross: float) -> float:
        return self.peak_gain_dbi

    def bound_key(self) -> Optional[tuple]:
        return ("omni", self.peak_gain_dbi)


@dataclass
class ParabolicAntenna(Antenna):
    """Directional antenna with Gaussian main lobe and side-lobe floor.

    Parameters
    ----------
    mount:
        Where the antenna is installed.
    boresight:
        The point the antenna is aimed at (a spot on the road below).
    beamwidth_deg:
        Full half-power beamwidth; the Laird GD24BP is 21 degrees.
    side_lobe_suppression_db:
        How far below the peak the side lobes sit.
    """

    mount: Position
    boresight: Position
    peak_gain_dbi: float = 14.0
    beamwidth_deg: float = 21.0
    side_lobe_suppression_db: float = 18.0

    def __post_init__(self) -> None:
        # The boresight ray never changes; computing it per gain query
        # was a measurable slice of the channel hot path.  Treat mount
        # and boresight as frozen after construction.
        self._bore = _unit_vector(self.mount, self.boresight)

    def off_axis_angle_rad(self, target: Position) -> float:
        """Angle between the boresight ray and the ray to ``target``."""
        bx, by, bz = self._bore
        mount = self.mount
        dx = target.x - mount.x
        dy = target.y - mount.y
        dz = target.z - mount.z
        norm = math.sqrt(dx * dx + dy * dy + dz * dz)
        if norm == 0.0:
            dot = bx
        else:
            dot = bx * (dx / norm) + by * (dy / norm) + bz * (dz / norm)
        dot = max(-1.0, min(1.0, dot))
        return math.acos(dot)

    def gain_dbi(self, target: Position) -> float:
        """Gain towards ``target``: quadratic main-lobe rolloff, floored."""
        theta_deg = math.degrees(self.off_axis_angle_rad(target))
        half_power_half_angle = self.beamwidth_deg / 2.0
        rolloff_db = 3.0 * (theta_deg / half_power_half_angle) ** 2
        rolloff_db = min(rolloff_db, self.side_lobe_suppression_db)
        return self.peak_gain_dbi - rolloff_db

    def gain_bound_dbi(self, min_dx: float, max_cross: float) -> float:
        """With the boresight perpendicular to the road, a target
        ``dx`` along it and ``c`` across has ``cos(theta) <=
        c / hypot(dx, c)``, so ``theta >= atan(min_dx / max_cross)``
        and :meth:`gain_dbi`'s roll-off at that angle (inlined: the
        exact path is hot) bounds the gain from above."""
        if self._bore[0] != 0.0:
            return math.inf
        theta_deg = math.degrees(math.atan2(min_dx, max_cross))
        rolloff_db = 3.0 * (theta_deg / (self.beamwidth_deg / 2.0)) ** 2
        rolloff_db = min(rolloff_db, self.side_lobe_suppression_db)
        return self.peak_gain_dbi - rolloff_db

    def bound_key(self) -> Optional[tuple]:
        key = (self.peak_gain_dbi, self.beamwidth_deg, self.side_lobe_suppression_db)
        return key if self._bore[0] == 0.0 else None


def _unit_vector(origin: Position, target: Position) -> tuple:
    dx = target.x - origin.x
    dy = target.y - origin.y
    dz = target.z - origin.z
    norm = math.sqrt(dx * dx + dy * dy + dz * dz)
    if norm == 0.0:
        return (1.0, 0.0, 0.0)
    return (dx / norm, dy / norm, dz / norm)
