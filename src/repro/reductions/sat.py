"""CNF formulas and a DPLL solver.

Substrate for the Theorem 4 reduction (3SAT → 4SAT → incremental
conservative coalescing).  Literals are non-zero integers in the DIMACS
convention: ``+i`` is variable i, ``-i`` its negation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..budget import Budget

Literal = int
Clause = Tuple[Literal, ...]


@dataclass
class CNF:
    """A CNF formula over variables 1..num_vars."""

    num_vars: int
    clauses: List[Clause] = field(default_factory=list)

    def __post_init__(self) -> None:
        for clause in self.clauses:
            self._check_clause(clause)

    def _check_clause(self, clause: Clause) -> None:
        for lit in clause:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} out of range")

    def add_clause(self, clause: Iterable[Literal]) -> None:
        """Append a clause."""
        clause = tuple(clause)
        self._check_clause(clause)
        self.clauses.append(clause)

    def is_satisfied_by(self, assignment: Dict[int, bool]) -> bool:
        """True iff the (total) assignment satisfies every clause."""
        for clause in self.clauses:
            if not any(
                assignment[abs(lit)] == (lit > 0) for lit in clause
            ):
                return False
        return True

    def clause_sizes(self) -> Set[int]:
        """The set of clause lengths present."""
        return {len(c) for c in self.clauses}


def solve_dpll(
    cnf: CNF, budget: Optional[Budget] = None
) -> Optional[Dict[int, bool]]:
    """A satisfying assignment by DPLL with unit propagation, or None.

    Plain but complete: unit propagation, pure-literal elimination at
    the root, most-frequent-variable branching.  An optional
    :class:`repro.budget.Budget` is checked at every branching node and
    raises :exc:`repro.budget.BudgetExceeded` when spent, so a hard
    formula cannot stall a whole experiment sweep.
    """
    assignment: Dict[int, bool] = {}

    def propagate(clauses: List[Clause]) -> Optional[List[Clause]]:
        """Apply the current assignment; return simplified clauses or
        None on conflict.  Extends the assignment with units."""
        changed = True
        while changed:
            changed = False
            new_clauses: List[Clause] = []
            for clause in clauses:
                satisfied = False
                remaining: List[Literal] = []
                for lit in clause:
                    var = abs(lit)
                    if var in assignment:
                        if assignment[var] == (lit > 0):
                            satisfied = True
                            break
                    else:
                        remaining.append(lit)
                if satisfied:
                    continue
                if not remaining:
                    return None  # conflict
                if len(remaining) == 1:
                    lit = remaining[0]
                    assignment[abs(lit)] = lit > 0
                    changed = True
                else:
                    new_clauses.append(tuple(remaining))
            clauses = new_clauses
        return clauses

    def solve(clauses: List[Clause]) -> bool:
        if budget is not None:
            budget.check()
        clauses = propagate(clauses)  # type: ignore[assignment]
        if clauses is None:
            return False
        if not clauses:
            return True
        counts: Dict[int, int] = {}
        for clause in clauses:
            for lit in clause:
                counts[abs(lit)] = counts.get(abs(lit), 0) + 1
        var = max(counts, key=lambda v: (counts[v], -v))
        for value in (True, False):
            saved = dict(assignment)
            assignment[var] = value
            if solve(list(clauses)):
                return True
            assignment.clear()
            assignment.update(saved)
        return False

    if solve(list(cnf.clauses)):
        for v in range(1, cnf.num_vars + 1):
            assignment.setdefault(v, False)
        return assignment
    return None


def is_satisfiable(cnf: CNF, budget: Optional[Budget] = None) -> bool:
    """Decision form of :func:`solve_dpll`."""
    return solve_dpll(cnf, budget=budget) is not None


def three_sat_to_four_sat(cnf: CNF) -> Tuple[CNF, int]:
    """The paper's 3SAT → 4SAT step (proof of Theorem 4).

    Add a fresh variable ``x0`` and extend every 3-clause with the
    literal ``x0``.  The new formula is satisfiable with **x0 false**
    iff the original is satisfiable (and trivially satisfiable with x0
    true).  Returns ``(new_cnf, x0_index)``.
    """
    if cnf.clause_sizes() - {3}:
        raise ValueError("input must be a 3SAT formula (all clauses size 3)")
    x0 = cnf.num_vars + 1
    out = CNF(num_vars=x0)
    for clause in cnf.clauses:
        out.add_clause(tuple(clause) + (x0,))
    return out, x0


def random_3sat(
    num_vars: int,
    num_clauses: int,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> CNF:
    """A random 3SAT instance with distinct variables per clause.

    Randomness must be explicit — pass ``rng=`` or ``seed=`` (see
    :func:`repro.graphs.generators.resolve_rng`).
    """
    from ..graphs.generators import resolve_rng

    rng = resolve_rng(rng, seed, "random_3sat")
    if num_vars < 3:
        raise ValueError("need at least 3 variables")
    cnf = CNF(num_vars=num_vars)
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause(
            tuple(v if rng.random() < 0.5 else -v for v in vs)
        )
    return cnf
