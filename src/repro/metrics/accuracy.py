"""Switching accuracy (paper Table 2).

The paper defines switching accuracy as the fraction of time a handover
scheme has the client attached to the *optimal* AP — the one with the
maximal instantaneous ESNR. The oracle side samples the channel through
the side-effect-free probe API, so measuring accuracy never perturbs
the run.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.scenarios.testbed import Testbed
from repro.sim.engine import MS, Timer


class SwitchingAccuracyMeter:
    """Periodically compares the first client's serving AP against the
    ESNR oracle."""

    def __init__(
        self,
        testbed: Testbed,
        sample_period_us: int = 10 * MS,
    ):
        self._testbed = testbed
        self._period = sample_period_us
        #: (time_us, serving_ap, best_ap) samples.
        self.samples: List[Tuple[int, Optional[str], str]] = []
        self._timer = Timer(testbed.sim, self._sample)
        self._timer.start(sample_period_us)

    def _sample(self) -> None:
        serving = self._testbed.serving_ap_of(0)
        best = self._testbed.best_ap_ground_truth(0, self._testbed.sim.now)
        self.samples.append((self._testbed.sim.now, serving, best))
        self._timer.start(self._period)

    def accuracy(self) -> float:
        """Fraction of samples where serving == oracle-best."""
        if not self.samples:
            return 0.0
        hits = sum(1 for _, serving, best in self.samples if serving == best)
        return hits / len(self.samples)
