"""The subgroup that shift elements generate, by breadth-first search.

An oracle independent of the lattice form that ``ShiftGroup.closure``
reads: it closes under adding the generators and their negatives, one
element at a time.  Every element has finite order, so that reaches the
whole subgroup.
"""

from algentropy.errors import BudgetExceededError


def bfs_closure(group, generators, cap):
    """The subgroup generated, as a frozenset; raises past ``cap`` elements."""
    steps = []
    for g in generators:
        for h in (g, -g):
            if not h.is_zero() and h not in steps:
                steps.append(h)
    zero = group.zero()
    seen = {zero}
    frontier = [zero]
    while frontier:
        fresh = []
        for x in frontier:
            for g in steps:
                y = x + g
                if y not in seen:
                    if len(seen) >= cap:
                        raise BudgetExceededError(f"subgroup closure exceeded cap {cap}")
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return frozenset(seen)
