"""Named residual reports shared by the validation, Helmholtz and matching suites."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ResidualEntry", "ResidualReport"]


@dataclass
class ResidualEntry:
    name: str
    value: float                 # normalized magnitude compared against tol
    tol: float
    passed: bool
    skipped: bool = False
    raw: float | None = None     # un-normalized magnitude where it differs
    note: str = ""
    residual: bool = True        # False for reported quantities (determinants, eigenvalues)

    @classmethod
    def from_value(cls, name: str, value: float, tol: float, raw: float | None = None,
                   note: str = "") -> "ResidualEntry":
        return cls(name=name, value=float(value), tol=float(tol),
                   passed=bool(value <= tol), raw=raw, note=note)

    @classmethod
    def normalized(cls, name: str, residuals, scales, tol: float) -> "ResidualEntry":
        """Largest |residual| over max(1, largest |scale|), keeping the raw value."""
        raw = float(np.max(np.abs(residuals))) if np.size(residuals) else 0.0
        scale = max(1.0, float(np.max(np.abs(scales)))) if np.size(scales) else 1.0
        return cls.from_value(name, raw / scale, tol, raw=raw)

    @classmethod
    def skip(cls, name: str, note: str = "") -> "ResidualEntry":
        return cls(name=name, value=0.0, tol=0.0, passed=True, skipped=True, note=note)


@dataclass
class ResidualReport:
    title: str
    entries: list[ResidualEntry] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(e.passed for e in self.entries if not e.skipped)

    def add(self, entry: ResidualEntry) -> None:
        self.entries.append(entry)

    def entry(self, name: str) -> ResidualEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def value(self, name: str) -> float:
        return self.entry(name).value

    def max_value(self) -> float:
        vals = [e.value for e in self.entries if not e.skipped and e.residual]
        return max(vals) if vals else 0.0

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "pass": self.overall_pass,
            "entries": [
                {
                    "name": e.name,
                    "value": e.value,
                    "tol": e.tol,
                    "pass": e.passed,
                    "skipped": e.skipped,
                    "raw": e.raw,
                    "note": e.note,
                }
                for e in self.entries
            ],
        }

    def __str__(self) -> str:
        lines = [self.title]
        for e in self.entries:
            if e.skipped:
                lines.append(f"  {e.name:<28s} skipped {('(' + e.note + ')') if e.note else ''}")
            else:
                status = "pass" if e.passed else "FAIL"
                lines.append(f"  {e.name:<28s} {e.value:12.4e}  (tol {e.tol:.1e})  {status}")
        lines.append(f"  => {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines)

    @staticmethod
    def merge_max(title: str, reports: list["ResidualReport"]) -> "ResidualReport":
        """Combine pointwise reports by taking the worst value per entry name."""
        merged = ResidualReport(title)
        if not reports:
            return merged
        for proto in reports[0].entries:
            name = proto.name
            same = [r.entry(name) for r in reports]
            if all(e.skipped for e in same):
                merged.add(ResidualEntry.skip(name, proto.note))
                continue
            live = [e for e in same if not e.skipped]
            worst = max(live, key=lambda e: e.value)
            merged.add(ResidualEntry(name=name, value=worst.value, tol=worst.tol,
                                     passed=all(e.passed for e in live),
                                     raw=worst.raw, note=proto.note,
                                     residual=proto.residual))
        return merged
