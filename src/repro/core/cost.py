"""The PSgL cost model (Section 4.4, Equation 2).

Expanding a Gpsi at pattern vertex ``vp`` mapped to data vertex ``vd``
costs

    load(Gpsi) = costg + ce * f(vp)

where ``costg`` covers verifying GRAY neighbours, ``ce`` is the cost of
materialising one new Gpsi and ``f(vp)`` is the number of new Gpsis the
expansion produces.  ``f(vp)`` is bounded by ``C(deg(vd), w)`` with ``w``
the number of WHITE neighbours of ``vp``; the paper estimates ``f`` by its
upper bound since both have the same order, which is what the
workload-aware distributor needs.

All constants are gathered in :class:`CostParameters` so ablations can
re-weight them.
"""

from __future__ import annotations

import math
from typing import Dict

from .._record import FrozenRecord

# Estimates can explode for hub vertices; cap to keep arithmetic sane
# without changing any argmin decision (everything above the cap is
# "hopeless" either way).
_ESTIMATE_CAP = 1e18


class CostParameters(FrozenRecord):
    """Unit costs used by the ledger and the estimators.

    ``gray_check`` is one exact adjacency probe (costg contribution per
    GRAY neighbour); ``scan`` is examining one data neighbour while
    building a candidate set (Algorithm 5's loop body); ``ce`` is
    materialising and routing one new Gpsi.
    """

    __slots__ = ("gray_check", "scan", "ce")

    def __init__(
        self, gray_check: float = 1.0, scan: float = 1.0, ce: float = 1.0
    ) -> None:
        object.__setattr__(self, "gray_check", gray_check)
        object.__setattr__(self, "scan", scan)
        object.__setattr__(self, "ce", ce)


DEFAULT_COSTS = CostParameters()


def binomial(n: int, k: int) -> float:
    """``C(n, k)`` as a float, 0 outside the valid range, capped."""
    if k < 0 or n < 0 or k > n:
        return 0.0
    if k == 0:
        return 1.0
    if n <= 200:
        return min(float(math.comb(n, k)), _ESTIMATE_CAP)
    # lgamma keeps hub-sized n cheap; compare in log space so huge values
    # hit the cap instead of overflowing exp().
    log_value = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    if log_value >= math.log(_ESTIMATE_CAP):
        return _ESTIMATE_CAP
    return min(math.exp(log_value), _ESTIMATE_CAP)


def estimate_f(degree: int, num_white: int) -> float:
    """Upper-bound estimate of ``f(vp)``: ``C(deg(vd), w)``.

    For a verification-only expansion (``w == 0``) this is 1, matching the
    paper's observation that clique follow-up iterations have constant
    cost.
    """
    return max(binomial(degree, num_white), 1.0)


def estimate_load(degree: int, num_white: int, costs: CostParameters = DEFAULT_COSTS) -> float:
    """Equation 2 with ``f`` replaced by its upper bound."""
    return costs.gray_check + costs.ce * estimate_f(degree, num_white)


def expected_f_from_distribution(
    degree_distribution: Dict[int, float],
    min_degree: int,
    num_white: int,
) -> float:
    """Section 5.2.2's data-vertex-free estimate of ``f(vp)``:

        f(vp) ~ sum over d >= deg(vp) of p(d) * C(d, w)

    used by the initial-pattern-vertex cost model, where the concrete data
    vertex is unknown and only the degree distribution ``p(d)`` is
    available.
    """
    total = 0.0
    for d, p in degree_distribution.items():
        if d >= min_degree:
            total += p * binomial(d, num_white)
            if total >= _ESTIMATE_CAP:
                return _ESTIMATE_CAP
    return total
