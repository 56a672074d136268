"""The shared finding/report format of all three analyzers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Ranked severity of one finding (higher sorts first in reports)."""

    INFO = 0
    WARNING = 1
    ERROR = 2


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by an analyzer.

    ``rule`` is a stable kebab-case identifier (``missing-dep-race``,
    ``leaked-request``, ...); ``analyzer`` names the producer (``race``,
    ``mpi``, or ``lint``).  ``tasks`` and ``buffer`` carry the program
    objects involved, by name, so reports stay readable after the run
    objects are gone.
    """

    rule: str
    severity: Severity
    message: str
    analyzer: str
    tasks: tuple[str, ...] = ()
    buffer: str | None = None

    @property
    def location(self) -> str:
        parts = " ↔ ".join(self.tasks) if self.tasks else "-"
        if self.buffer:
            parts = f"{parts} @ {self.buffer}"
        return parts

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.name,
            "message": self.message,
            "analyzer": self.analyzer,
            "tasks": list(self.tasks),
            "buffer": self.buffer,
        }


@dataclass
class AnalysisReport:
    """Everything the analyzers found about one program/run."""

    program: str = ""
    findings: list[Finding] = field(default_factory=list)

    def extend(self, findings) -> None:
        self.findings.extend(findings)

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.findings)

    def by_rule(self, rule: str) -> list[Finding]:
        return [f for f in self.findings if f.rule == rule]

    def by_analyzer(self, analyzer: str) -> list[Finding]:
        return [f for f in self.findings if f.analyzer == analyzer]

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    @property
    def has_errors(self) -> bool:
        return any(f.severity == Severity.ERROR for f in self.findings)

    def ranked(self) -> list[Finding]:
        """Findings sorted most-severe first, then by rule and location
        (a deterministic order for tables and tests)."""
        return sorted(
            self.findings,
            key=lambda f: (-int(f.severity), f.analyzer, f.rule, f.location),
        )

    # -- rendering ---------------------------------------------------------
    def summary(self) -> str:
        return (
            f"{len(self.findings)} finding(s): "
            f"{self.count(Severity.ERROR)} error(s), "
            f"{self.count(Severity.WARNING)} warning(s), "
            f"{self.count(Severity.INFO)} info"
        )

    def format_table(self) -> str:
        """A severity-ranked table of every finding."""
        if not self.findings:
            return "no findings"
        rows = [("SEVERITY", "ANALYZER", "RULE", "LOCATION", "MESSAGE")]
        for f in self.ranked():
            rows.append(
                (f.severity.name, f.analyzer, f.rule, f.location, f.message)
            )
        widths = [
            max(len(row[col]) for row in rows) for col in range(4)
        ]
        lines = []
        for row in rows:
            lead = "  ".join(
                cell.ljust(widths[col]) for col, cell in enumerate(row[:4])
            )
            lines.append(f"{lead}  {row[4]}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "program": self.program,
            "summary": self.summary(),
            "findings": [f.to_dict() for f in self.ranked()],
        }
