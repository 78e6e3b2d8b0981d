"""Structured verification reports shared by all checking routines.

A report is an ordered list of check records; each record states which
identity was tested, at which sample point, the residual obtained and the
tolerance it was held to.  Serialization is deterministic (sorted keys,
records kept in insertion order) so identical runs give identical bytes,
and strict JSON: a non-finite residual is written as the string "NaN",
"Infinity" or "-Infinity", which :meth:`VerificationReport.from_json`
reads back as the float.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np


@dataclass
class CheckRecord:
    check_id: str
    detail: str          # human-readable statement of the identity checked
    point: str           # digest of the sample point(s)
    residual: float
    tolerance: float
    passed: bool

    @staticmethod
    def make(check_id, detail, residual, tolerance, point=""):
        residual = float(residual)
        return CheckRecord(check_id=check_id, detail=detail, point=point,
                           residual=residual, tolerance=float(tolerance),
                           passed=bool(residual <= tolerance))


@dataclass
class VerificationReport:
    scenario: str
    config: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def add(self, check_id, detail, residual, tolerance, point=""):
        rec = CheckRecord.make(check_id, detail, residual, tolerance, point)
        self.checks.append(rec)
        return rec

    def add_worst(self, check_id, detail, residuals, tolerance, point=""):
        """Record the largest residual, or NaN (which fails) if any is NaN."""
        worst = np.max(np.fromiter(residuals, dtype=float), initial=0.0)
        return self.add(check_id, detail, worst, tolerance, point)

    def add_bool(self, check_id, detail, ok, point=""):
        """Record a yes/no check as residual 0/1 against tolerance 0.5."""
        self.checks.append(CheckRecord.make(
            check_id, detail, 0.0 if ok else 1.0, 0.5, point))

    def extend(self, other: "VerificationReport"):
        self.checks.extend(other.checks)

    @property
    def summary(self):
        passed = sum(1 for c in self.checks if c.passed)
        return {"total": len(self.checks), "passed": passed,
                "failed": len(self.checks) - passed}

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "config": self.config,
            "checks": [asdict(c) for c in self.checks],
            "summary": self.summary,
        }

    def to_json(self):
        data = self.to_dict()
        for c in data["checks"]:
            if not math.isfinite(c["residual"]):
                c["residual"] = json.dumps(c["residual"])  # "NaN", ...
        return json.dumps(data, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"

    @staticmethod
    def from_json(text: str) -> "VerificationReport":
        data = json.loads(text)
        rep = VerificationReport(scenario=data["scenario"],
                                 config=data.get("config", {}))
        for c in data.get("checks", []):
            rep.checks.append(CheckRecord(
                check_id=c["check_id"], detail=c["detail"], point=c["point"],
                residual=float(c["residual"]), tolerance=c["tolerance"],
                passed=c["passed"]))
        return rep

    def to_text(self):
        lines = [f"scenario: {self.scenario}"]
        width = max([len(c.check_id) for c in self.checks] + [8])
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.check_id.ljust(width)} "
                         f"residual={c.residual:.3e} tol={c.tolerance:.1e}"
                         + (f"  @ {c.point}" if c.point else ""))
        s = self.summary
        lines.append(f"  {s['passed']}/{s['total']} checks passed")
        return "\n".join(lines) + "\n"
