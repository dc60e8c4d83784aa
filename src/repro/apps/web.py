"""Web page loading (paper Table 5).

The case study loads the eBay homepage (2.1 MB, served locally) while
driving past the array and measures browser-start to fully-loaded.
A browser is modelled as six parallel persistent connections splitting
the page's objects; the page is loaded when every connection has
delivered its share. A load that does not finish within the transit is
reported as infinite, as in the paper.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.scenarios.testbed import Testbed
from repro.sim.engine import SECOND
from repro.transport.tcp import MSS

#: eBay homepage weight in the paper's measurement.
PAGE_BYTES = 2_100_000
#: Parallel persistent connections a browser opens per origin.
PARALLEL_CONNECTIONS = 6


class PageLoad:
    """One page fetch over several parallel app-limited TCP flows."""

    def __init__(
        self,
        testbed: Testbed,
        client_index: int = 0,
        page_bytes: int = PAGE_BYTES,
    ):
        self._testbed = testbed
        self._sim = testbed.sim
        self.page_bytes = page_bytes
        self.started_us = testbed.sim.now
        self.finished_us: Optional[int] = None
        self._flows: List[dict] = []
        total_segments = math.ceil(page_bytes / MSS)
        per_connection = math.ceil(total_segments / PARALLEL_CONNECTIONS)
        for i in range(PARALLEL_CONNECTIONS):
            share = min(per_connection, total_segments - i * per_connection)
            if share <= 0:
                break
            flow_id = f"web-{client_index}-{i}-{self.started_us}"
            sender, receiver = testbed.add_downlink_tcp_flow(
                client_index, flow_id=flow_id, bulk=False
            )
            sender.supply(share)
            state = {"sender": sender, "receiver": receiver, "share": share}
            self._flows.append(state)
            receiver.on_deliver = self._make_on_deliver(state)

    def _make_on_deliver(self, state: dict):
        def on_deliver(segments: int) -> None:
            if state["receiver"].rcv_nxt >= state["share"]:
                self._check_complete()

        return on_deliver

    def _check_complete(self) -> None:
        if self.finished_us is not None:
            return
        if all(f["receiver"].rcv_nxt >= f["share"] for f in self._flows):
            self.finished_us = self._sim.now

    @property
    def complete(self) -> bool:
        return self.finished_us is not None

    def load_time_s(self) -> float:
        """Seconds to full load, or infinity if never completed."""
        if self.finished_us is None:
            return float("inf")
        return (self.finished_us - self.started_us) / SECOND

    def bytes_delivered(self) -> int:
        return sum(
            min(f["receiver"].rcv_nxt, f["share"]) * MSS for f in self._flows
        )
