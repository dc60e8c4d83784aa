"""A-MPDU construction.

Frame aggregation is what makes modern 802.11 efficient — and what
makes naive AP switching expensive, because an AP with a deep queue
keeps building big aggregates for a client that has already driven
away. The builder pulls retransmission-pending MPDUs first (they gate
the block-ACK window), then issues fresh sequence numbers from the
service queue, subject to the window, subframe-count, and airtime
limits.
"""

from __future__ import annotations

from typing import List

from repro.mac.blockack import BlockAckScoreboard
from repro.mac.frames import (
    HT_PREAMBLE_US,
    MAX_AMPDU_AIRTIME_US,
    MAX_AMPDU_SUBFRAMES,
    Mpdu,
)
from repro.net.queues import DropTailQueue
from repro.phy.mcs import Mcs


def build_ampdu_mpdus(
    scoreboard: BlockAckScoreboard,
    service_queue: DropTailQueue,
    mcs: Mcs,
) -> List[Mpdu]:
    """Assemble the MPDU list for the next aggregate to one peer.

    Retransmissions come first; new packets are drawn from the service
    queue while the block-ACK window, subframe budget, and airtime
    budget allow. Returns an empty list when nothing is eligible.
    """
    mpdus: List[Mpdu] = list(scoreboard.take_retransmits(MAX_AMPDU_SUBFRAMES))
    airtime = float(HT_PREAMBLE_US)
    for mpdu in mpdus:
        airtime += mcs.airtime_us(8 * mpdu.wire_bytes)

    while (
        len(mpdus) < MAX_AMPDU_SUBFRAMES
        and scoreboard.window_room() > 0
        and not service_queue.empty
    ):
        head = service_queue.peek()
        head_airtime = mcs.airtime_us(8 * (head.size_bytes + 34))
        if mpdus and airtime + head_airtime > MAX_AMPDU_AIRTIME_US:
            break
        packet = service_queue.dequeue()
        mpdu = scoreboard.issue(packet)
        mpdus.append(mpdu)
        airtime += mcs.airtime_us(8 * mpdu.wire_bytes)
    return mpdus
