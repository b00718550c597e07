"""Structured pass/fail records for identity checks.

An identity check is a stream of cases ``(location, expected, got)``, each
optionally followed by a dict of parameters that describe the case.
:func:`first_mismatch` turns such a stream into one report: PASS with the
number of cases checked, or FAIL with the first case whose sides differ. A
report passes exactly when it carries no witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Witness:
    """First failing coefficient of an identity check."""

    location: tuple[str, ...]
    expected: str
    got: str


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    params: tuple[tuple[str, str], ...]
    witness: Witness | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.params)
        status = "PASS" if self.passed else "FAIL"
        head = f"{status} {self.identity}" + (f" [{params}]" if params else "")
        if self.witness is None:
            return head
        w = self.witness
        return (
            f"{head} at {'(' + ', '.join(w.location) + ')'}: "
            f"expected {w.expected}, got {w.got}"
        )


def _params(params: dict[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple((k, str(v)) for k, v in params.items())


def report_pass(identity: str, **params: object) -> IdentityReport:
    return IdentityReport(identity, _params(params))


def report_fail(
    identity: str,
    location: tuple[str, ...],
    expected: object,
    got: object,
    **params: object,
) -> IdentityReport:
    return IdentityReport(
        identity, _params(params), Witness(tuple(location), str(expected), str(got))
    )


def first_mismatch(
    identity: str, cases: Iterable[tuple], **params: object
) -> IdentityReport:
    """Check ``(location, expected, got[, case_params])`` cases in order.

    Stops at the first case whose sides differ and reports it, with
    ``params`` followed by that case's own parameters. Otherwise passes
    with ``checks`` (the number of cases) followed by ``params``.
    """
    checks = 0
    for location, expected, got, *case_params in cases:
        if expected != got:
            return report_fail(
                identity, location, expected, got, **params, **dict(*case_params)
            )
        checks += 1
    return report_pass(identity, checks=checks, **params)
