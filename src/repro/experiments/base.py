"""Experiment framework: uniform results, checks, and formatting.

Every experiment module exposes ``run(seed=0, quick=True)`` returning
an :class:`ExperimentResult`: the rows/series the paper's table or
figure reports, plus *shape checks* — assertions about who wins and by
roughly what factor, which is the level a simulator-based reproduction
can and should be held to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Check", "ExperimentResult", "check_between", "check"]


@dataclass
class Check:
    """One verified property of an experiment's outcome."""

    name: str
    passed: bool
    detail: str = ""


def check(name: str, condition: bool, detail: str = "") -> Check:
    return Check(name=name, passed=bool(condition), detail=detail)


def check_between(name: str, value: float, low: float, high: float) -> Check:
    return Check(
        name=name,
        passed=low <= value <= high,
        detail=f"{value:.4g} expected in [{low:.4g}, {high:.4g}]",
    )


@dataclass
class ExperimentResult:
    """The output of one table/figure reproduction."""

    experiment_id: str
    title: str
    rows: List[Dict]
    checks: List[Check] = field(default_factory=list)
    notes: str = ""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_checks(self) -> List[Check]:
        return [c for c in self.checks if not c.passed]

    def format_table(self, max_rows: Optional[int] = None) -> str:
        """Render the rows as an aligned text table."""
        if not self.rows:
            return f"{self.experiment_id}: (no rows)"
        rows = self.rows if max_rows is None else self.rows[:max_rows]
        columns = list(rows[0].keys())
        cells = [[_fmt(row.get(col)) for col in columns] for row in rows]
        widths = [
            max(len(col), *(len(row[i]) for row in cells))
            for i, col in enumerate(columns)
        ]
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)),
            "  ".join("-" * widths[i] for i in range(len(columns))),
        ]
        lines += ["  ".join(row[i].ljust(widths[i]) for i in range(len(columns)))
                  for row in cells]
        status = "PASS" if self.passed else "FAIL"
        lines.append(f"checks: {status} ({sum(c.passed for c in self.checks)}"
                     f"/{len(self.checks)})")
        for failed in self.failed_checks():
            lines.append(f"  FAILED {failed.name}: {failed.detail}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
