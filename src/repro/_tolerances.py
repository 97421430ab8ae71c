"""Shared numeric tolerances.

Every floating-point comparison the library makes on purpose lives
here, under a name that says what it protects, so the values stay in
sync across the execution models (a drifting tolerance would make the
engines disagree on which nodes clear a peeling threshold and break
the cross-backend parity guarantees the test suite enforces).
"""

from __future__ import annotations

import math

#: Slack added to the peeling threshold before the ``degree <= threshold``
#: test in Algorithms 1–3.  Degrees and thresholds are sums/products of
#: the same edge weights computed in different orders per execution
#: model; this absorbs the resulting last-ulp noise so the in-memory,
#: streaming, sketch, and MapReduce engines remove identical node sets.
THRESHOLD_EPS = 1e-12


def peel_cutoff(threshold: float, remaining_edges: int) -> float:
    """The ``degree <= cutoff`` bound of one Algorithm 1/2 pass.

    ``threshold + THRESHOLD_EPS`` while S still induces an edge, and
    ``inf`` once the integer count of induced edges is 0.  Degrees are
    maintained by subtraction, so with non-dyadic weights an edgeless S
    can keep float residue (degrees of 1e-11, a weight of -2e-11) that
    no node clears the threshold against, and the pass loop would spin;
    the peels also reset the weight to 0.0 at that point.  On exact
    (integer or dyadic) sums every degree is then exactly 0, so the rule
    changes nothing there.  The C kernels apply the same rule inline.
    """
    return threshold + THRESHOLD_EPS if remaining_edges else math.inf


#: Cutoff below which an LP variable is treated as zero when rounding a
#: fractional LP solution to a node set.
LP_EPS = 1e-12

#: Residual-capacity cutoff in the max-flow substrate: arcs with less
#: remaining capacity are considered saturated.
FLOW_EPS = 1e-12
