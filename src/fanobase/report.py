"""Machine-readable verification reports.

A report is a hashable value, ``(case label, CheckResult)`` pairs in table
order; :meth:`Report.to_dict` alone turns them into output records with
summary counts.  Serialization is deterministic (sorted keys, fixed
indentation), so a parsed report re-serializes to the identical byte string.
"""

from enum import Enum
from fractions import Fraction

from .errors import FanobaseError, Value, require_integers


def to_json(data: dict) -> str:
    """The one JSON layout of every output dict: sorted keys, two-space indent."""
    import json  # here, its only use, so a text output loads no json
    return json.dumps(data, indent=2, sort_keys=True)


class Report(Value):
    """``(case label, CheckResult)`` pairs in table order; ``to_dict`` gives one
    ``{case, name, rule, expected, got, pass}`` record per check."""

    __slots__ = ("version", "checks")

    def __init__(self, version: str, checks: tuple):
        set_version, set_checks = self._set
        set_version(self, version)
        set_checks(self, checks)

    @property
    def summary(self) -> dict:
        passed = sum(check.passed for _, check in self.checks)
        return {"passed": passed, "failed": len(self.checks) - passed}

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "checks": [
                {
                    "case": label,
                    "name": check.name,
                    "rule": check.rule,
                    "expected": _jsonable(check.expected),
                    "got": _jsonable(check.got),
                    "pass": check.passed,
                }
                for label, check in self.checks
            ],
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
    from .classify import case_checks, enumerate_cases  # here, so --json alone loads no classify
    cases = enumerate_cases()
    if max_degree is not None:
        require_integers("a maximum degree", (max_degree,))
        cases = [case for case in cases if case.degree <= max_degree]
        if not cases:
            raise FanobaseError(f"no case has anticanonical degree <= {max_degree}")
    return Report(version, tuple((case.label, check)
                                 for case in cases for check in case_checks(case)))
