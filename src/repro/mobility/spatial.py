"""Uniform-grid spatial index over AP positions.

The corridor testbed historically found the nearest AP with a linear
``min()`` over *every* AP — fine for 8, pathological for the
city-scale shard corridors where hundreds of APs line the road.  APs
sit (almost) on a line, so a 1-D uniform-grid bucket index over their
x-positions makes nearest-AP queries O(nearby): scan the query
bucket, then widen ring by ring until no unscanned bucket can beat
the best hit.

Correctness contract (the byte-identity one): :meth:`ApGridIndex.nearest`
returns *exactly* the AP the legacy ``min(candidates, key=distance)``
returned — same :meth:`~repro.mobility.road.Position.distance_to`
floats, ties broken by insertion order, which is the legacy iteration
order of ``Testbed.ap_ids``.  The termination bound uses only the
|Δx| component, which never exceeds the full 3-D distance, so it can
never prune the true winner even though APs differ in y/z.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Optional, Tuple

from repro.mobility.road import Position

#: Default bucket width (metres).  At the paper's 7.5 m AP spacing one
#: bucket holds ~3 APs; nearest queries then touch ~1-3 buckets.
DEFAULT_BUCKET_M = 25.0


class ApGridIndex:
    """1-D uniform-grid bucketing of APs by x-position."""

    def __init__(self, bucket_m: float = DEFAULT_BUCKET_M):
        if bucket_m <= 0:
            raise ValueError("bucket_m must be positive")
        self.bucket_m = float(bucket_m)
        #: bucket key -> [(ap_id, position, insertion_order), ...]
        self._buckets: Dict[int, List[Tuple[str, Position, int]]] = {}
        self._count = 0
        self._min_key = 0
        self._max_key = 0
        #: AP x-positions, ascending, and their ids: :meth:`within`'s view.
        self._xs: List[float] = []
        self._ids: List[str] = []
        #: Cumulative nearest() calls (candidate-set cost accounting).
        self.queries = 0
        #: Cumulative candidates whose distance was actually computed.
        self.scanned = 0

    def _key(self, x: float) -> int:
        return math.floor(x / self.bucket_m)

    def add(self, ap_id: str, position: Position) -> None:
        """Register an AP.  Insertion order is the tie-break order."""
        key = self._key(position.x)
        if self._count == 0:
            self._min_key = self._max_key = key
        else:
            self._min_key = min(self._min_key, key)
            self._max_key = max(self._max_key, key)
        self._buckets.setdefault(key, []).append(
            (ap_id, position, self._count)
        )
        self._count += 1
        at = bisect_right(self._xs, position.x)
        self._xs.insert(at, position.x)
        self._ids.insert(at, ap_id)

    def within(self, x: float, radius_m: float) -> List[str]:
        """Every AP with ``|ap.x - x| <= radius_m``, by ascending x: a
        range query reads the x-sorted array, not the buckets, and is
        not counted in :attr:`queries` / :attr:`scanned`."""
        return self._ids[
            bisect_left(self._xs, x - radius_m) : bisect_right(self._xs, x + radius_m)
        ]

    def nearest(
        self,
        position: Position,
        predicate: Optional[Callable[[str], bool]] = None,
    ) -> Optional[str]:
        """The AP nearest ``position`` (optionally filtered), or None.

        Identical result to
        ``min(aps, key=lambda ap: ap_position.distance_to(position))``
        over the predicate-passing APs in insertion order.
        """
        if self._count == 0:
            return None
        self.queries += 1
        bucket_m = self.bucket_m
        x = position.x
        center = self._key(x)
        best_dist = math.inf
        best_order = -1
        best_ap: Optional[str] = None
        ring = 0
        while True:
            keys = (center,) if ring == 0 else (center - ring, center + ring)
            for key in keys:
                if key < self._min_key or key > self._max_key:
                    continue
                for ap_id, ap_pos, order in self._buckets.get(key, ()):
                    if predicate is not None and not predicate(ap_id):
                        continue
                    self.scanned += 1
                    dist = ap_pos.distance_to(position)
                    if dist < best_dist or (
                        dist == best_dist and order < best_order
                    ):
                        best_dist, best_order, best_ap = dist, order, ap_id
            ring += 1
            left_in = center - ring >= self._min_key
            right_in = center + ring <= self._max_key
            if not (left_in or right_in):
                break
            if best_ap is not None:
                # Smallest |Δx| any AP in the next ring could have; the
                # 3-D distance is at least that, so once it exceeds the
                # best hit nothing further out can win.
                bounds = []
                if left_in:
                    bounds.append(x - (center - ring + 1) * bucket_m)
                if right_in:
                    bounds.append((center + ring) * bucket_m - x)
                if min(bounds) > best_dist:
                    break
        return best_ap
