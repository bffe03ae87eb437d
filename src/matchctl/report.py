"""Named residual reports shared by the validation, Helmholtz and matching suites.

Every engine normalizes through the one `ResidualEntry.normalized`: the
largest |residual| over max(1, largest |term| entering it), computed on
arrays whose first axis runs over the points (a single state or shape point
is one point), and merged over the points by `ResidualEntry.max_over` as
`ResidualReport.merge_max` merges one-point reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

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
    def normalized(cls, name: str, residuals: np.ndarray, scales, tol: float,
                   skipped: np.ndarray | None = None, note: str = "") -> "ResidualEntry":
        """Largest |residual| over max(1, largest |scale|) at each point, merged
        over the points by `max_over`: ``residuals`` and every array of
        ``scales`` carry the point axis first (one point for a single state).
        The raw value is the largest |residual| of the reported point."""
        n = len(residuals)
        raw = np.abs(residuals).reshape(n, -1).max(axis=1)
        top = reduce(np.maximum, (np.abs(s).reshape(n, -1).max(axis=1) for s in scales))
        return cls.max_over(name, raw / np.where(top > 1.0, top, 1.0), tol, raw, skipped, note)

    @classmethod
    def floored(cls, name: str, values: np.ndarray, floor: float,
                note: str = "") -> "ResidualEntry":
        """What `ResidualReport.merge_max` makes of a floored quantity (one that
        passes above ``floor``, such as |det g|) given at each point: the value
        of the first point whose value is smallest (a NaN counts only at the
        first point, as Python's ``min`` takes it), passed when every point is
        above the floor."""
        worst = 0 if np.isnan(values[0]) else np.argmin(np.where(np.isnan(values), np.inf,
                                                                 values))
        return cls(name=name, value=float(values[worst]), tol=float(floor),
                   passed=bool(np.all(values > floor)), residual=False, note=note)

    @classmethod
    def skip(cls, name: str, note: str = "") -> "ResidualEntry":
        return cls(name=name, value=0.0, tol=0.0, passed=True, skipped=True, note=note)

    @classmethod
    def max_over(cls, name: str, values: np.ndarray, tol: float, raws: np.ndarray | None = None,
                 skipped: np.ndarray | None = None, note: str = "") -> "ResidualEntry":
        """What `ResidualReport.merge_max` makes of one entry per point, given
        as arrays with one element per point: the value and raw of the first
        live point whose value is largest (a NaN counts only at the first live
        point, as Python's ``max`` takes it), passed when every live point
        passes, and a skip when every point is skipped.  Without ``raws`` the
        raw is None.  ``note`` is a skipped point's note, which the merged
        entry keeps when the first point is skipped."""
        live = None if skipped is None else ~np.asarray(skipped)
        if live is not None:
            if not live.any():
                return cls.skip(name, note)
            at = np.flatnonzero(live)
            values, raws = values[at], None if raws is None else raws[at]
        worst = 0 if np.isnan(values[0]) else np.argmax(np.where(np.isnan(values), -np.inf,
                                                                 values))
        return cls(name=name, value=float(values[worst]), tol=float(tol),
                   passed=bool(np.all(values <= tol)),
                   raw=None if raws is None else float(raws[worst]),
                   note="" if live is None or live[0] else note)


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
        """Combine pointwise reports by taking the worst value per entry name:
        the largest of a residual, the smallest of a floored quantity (one
        that passes above its floor, such as |det g|)."""
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
            worst = (max if proto.residual else min)(live, key=lambda e: e.value)
            merged.add(ResidualEntry(name=name, value=worst.value, tol=worst.tol,
                                     passed=all(e.passed for e in live),
                                     raw=worst.raw, note=proto.note,
                                     residual=proto.residual))
        return merged
