"""Sweep reports: a quantity tabulated over a parameter grid with error
estimates and a monotonicity verdict.

A pairwise verdict accepts a step when the consecutive difference respects
the declared direction within the two points' error estimates plus a fixed
slack; the report keeps the worst signed violation so near-misses are
visible.
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
    verdicts: list = field(default_factory=list)
    worst_violation: float = 0.0

    def __post_init__(self):
        check_grid(self.grid)
        self._judge()

    def _judge(self):
        self.verdicts = []
        worst = 0.0
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
            worst = max(worst, violation)
        self.worst_violation = float(worst) if self.verdicts else 0.0

    @property
    def monotone_ok(self):
        return all(self.verdicts) if self.verdicts else True

    def observed_direction(self, tol=None):
        """Direction actually seen in the data, ignoring the declared one."""
        tol = self.tol if tol is None else tol
        d = np.diff(np.asarray(self.values, dtype=float))
        if np.all(np.abs(d) <= tol):
            return "constant"
        if np.all(d <= tol):
            return "non-increasing"
        if np.all(d >= -tol):
            return "non-decreasing"
        return "none"
