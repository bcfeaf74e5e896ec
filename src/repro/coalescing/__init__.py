"""Register-coalescing strategies — the paper's primary subject.

Four problem variants (Section 1), each with the heuristics used in
practice and an exact baseline for small instances.  The aggressive and
conservative optima share one branch and bound,
:func:`optimal_coalescing`, whose ``target`` picks the problem:

=====================  ==============================================
aggressive             :func:`aggressive_coalesce`,
                       :func:`optimal_coalescing` with target
                       ``"valid"``  (Theorem 2)
conservative           :func:`conservative_coalesce` with the Briggs /
                       George / brute-force tests of
                       :data:`repro.graphs.dense.DENSE_TESTS`,
                       :func:`optimal_coalescing` with target
                       ``"greedy"`` or ``"kcolorable"``  (Theorem 3)
incremental            :func:`chordal_incremental_coalescible`
                       (polynomial, Theorem 5),
                       :func:`incremental_coalescible_exact`
                       (Theorem 4)
optimistic             :func:`optimistic_coalesce`,
                       :func:`decoalesce_minimum`  (Theorem 6)
=====================  ==============================================
"""

from .base import CoalescingResult, affinities_by_weight, empty_coalescing
from .aggressive import aggressive_coalesce
from .conservative import conservative_coalesce
from .incremental import (
    IntervalWitness,
    chordal_incremental_coalescible,
    chordal_incremental_coloring,
    incremental_coalescible_exact,
)
from .optimistic import decoalesce_minimum, optimistic_coalesce
from .exact import optimal_coalescing
from .chordal_strategy import chordal_incremental_coalesce
from .biased import biased_coloring_result, biased_greedy_coloring

__all__ = [
    "CoalescingResult",
    "affinities_by_weight",
    "empty_coalescing",
    "aggressive_coalesce",
    "conservative_coalesce",
    "IntervalWitness",
    "chordal_incremental_coalescible",
    "chordal_incremental_coloring",
    "incremental_coalescible_exact",
    "optimistic_coalesce",
    "decoalesce_minimum",
    "optimal_coalescing",
    "chordal_incremental_coalesce",
    "biased_coloring_result",
    "biased_greedy_coloring",
]
