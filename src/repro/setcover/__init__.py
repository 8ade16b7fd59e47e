"""Set-cover machinery behind DR-SC.

Sec. III-A of the paper formulates grouping as covering devices with
time windows of length TI: "Finding the minimum set of frames that would
cover all devices corresponds to the set cover problem which is a known
NP-hard [9]. Therefore, we follow an approximate solution to this
problem, given a greedy set selection approach [10]."

* :mod:`repro.setcover.windows` — each device's intervals of covering
  window starts (vectorised);
* :mod:`repro.setcover.greedy` — the iterated greedy cover (Chvátal);
* :mod:`repro.setcover.incremental` — the sweep behind the greedy
  cover: periods with many POs in the horizon become residue
  histograms, the rest keep explicit intervals, and covered devices are
  removed instead of re-deriving the sweep per round;
* :mod:`repro.setcover.decision` — the columnar
  :class:`~repro.setcover.decision.GroupingDecision` the cover returns
  (and every grouping policy builds);
* :mod:`repro.setcover.exact` — branch-and-bound exact minimum cover for
  small instances, used to test the greedy's approximation quality.
"""

from repro.setcover.decision import GroupingDecision
from repro.setcover.windows import coverage_intervals
from repro.setcover.greedy import greedy_window_cover
from repro.setcover.incremental import IncrementalSweep
from repro.setcover.exact import exact_min_set_cover, exact_min_window_cover

__all__ = [
    "coverage_intervals",
    "GroupingDecision",
    "greedy_window_cover",
    "IncrementalSweep",
    "exact_min_set_cover",
    "exact_min_window_cover",
]
