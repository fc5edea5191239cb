"""Machine-readable verification reports.

A report is a flat list of check records, each tagged with its case
label, plus summary counts derived from them.  Serialization is
deterministic (sorted keys, fixed indentation), so a parsed report
re-serializes to the identical byte string.
"""

import json
from enum import Enum
from fractions import Fraction

from .classify import case_checks, enumerate_cases
from .errors import FanobaseError, Value, require_integers


def to_json(data: dict) -> str:
    """The one JSON layout of every output dict: sorted keys, two-space indent."""
    return json.dumps(data, indent=2, sort_keys=True)


class Report(Value):
    """Check records ``{case, name, rule, expected, got, pass}`` in table order."""

    __slots__ = ("version", "checks")

    def __init__(self, version: str, checks: tuple):
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "checks", checks)

    @property
    def summary(self) -> dict:
        passed = sum(record["pass"] for record in self.checks)
        return {"passed": passed, "failed": len(self.checks) - passed}

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "checks": [dict(record) for record in self.checks],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return to_json(self.to_dict())


def _jsonable(value):
    """Exact-integer JSON encoding; no floats ever appear in a report."""
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    raise TypeError(f"no exact JSON encoding for {type(value).__name__} value {value!r}")


def build_report(version: str, max_degree: int | None = None) -> Report:
    """Verification report over all cases (optionally capped by degree).

    Raises FanobaseError for a cap that is not an integer or that no case
    meets, so a capped report never comes out empty and all green.
    """
    cases = enumerate_cases()
    if max_degree is not None:
        require_integers("a maximum degree", (max_degree,))
        cases = [case for case in cases if case.degree <= max_degree]
        if not cases:
            raise FanobaseError(f"no case has anticanonical degree <= {max_degree}")
    return Report(
        version=version,
        checks=tuple(
            {
                "case": case.label,
                "name": check.name,
                "rule": check.rule,
                "expected": _jsonable(check.expected),
                "got": _jsonable(check.got),
                "pass": check.passed,
            }
            for case in cases
            for check in case_checks(case)
        ),
    )
