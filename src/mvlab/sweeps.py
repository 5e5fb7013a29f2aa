"""Sweep reports: a quantity tabulated over a parameter grid with error
estimates and a monotonicity verdict.  ``sweep`` is the one path that
evaluates a quantity on a grid and judges it.

A pairwise verdict accepts a step when the consecutive difference respects
the declared direction within the two points' error estimates plus a fixed
slack.  The report keeps the worst violation floored at 0.0: it reads
exactly 0.0 when every step passes, however near a miss, and the amount of
the worst failure (or NaN) otherwise.
"""

from dataclasses import dataclass, field

import numpy as np


def check_grid(grid):
    """Raise ValueError unless the grid is strictly increasing."""
    g = np.asarray(grid, dtype=float)
    if len(g) > 1 and not np.all(np.diff(g) > 0):
        raise ValueError("sweep grid must be strictly increasing")


@dataclass
class SweepReport:
    """A monotone quantity evaluated on an increasing parameter grid."""

    name: str
    grid: list
    values: list
    errors: list
    direction: str = "none"      # non-increasing | non-decreasing | constant | none
    tol: float = 1e-6
    verdicts: list = field(init=False)
    worst_violation: float = field(init=False)

    def __post_init__(self):
        check_grid(self.grid)
        self.verdicts, violations = [], [0.0]
        for i in range(len(self.values) - 1):
            slack = self.errors[i] + self.errors[i + 1] + self.tol
            step = self.values[i + 1] - self.values[i]
            if self.direction == "non-increasing":
                violation = step - slack
            elif self.direction == "non-decreasing":
                violation = -step - slack
            elif self.direction == "constant":
                violation = abs(step) - slack
            else:
                violation = -np.inf
            self.verdicts.append(bool(violation <= 0.0))
            violations.append(violation)
        self.worst_violation = float(np.max(violations))  # NaN if any is NaN

    @property
    def monotone_ok(self):
        return all(self.verdicts)


def sweep(name, quantity, grid, direction, tol):
    """Evaluate ``quantity(p) -> (value, err)`` once per point of a strictly
    increasing grid, which is checked before the first evaluation."""
    check_grid(grid)
    pairs = [quantity(p) for p in grid]
    return SweepReport(name, list(grid), [v for v, _ in pairs],
                       [e for _, e in pairs], direction=direction, tol=tol)
