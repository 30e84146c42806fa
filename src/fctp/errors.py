"""Exception hierarchy for the fctp package."""


class FctpError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FctpError):
    """Malformed instance or solution text; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InstanceError(FctpError):
    """An Instance's parts break the input contract; carries the first violation."""

    def __init__(self, report: str):
        super().__init__(f"invalid instance: {report}")
        self.report = report


class VariantError(FctpError):
    """A solver was called on an instance outside its variant."""


class InfeasibleError(FctpError):
    """No feasible flow exists (forbidden edges disconnect the instance)."""


class GuardError(FctpError):
    """An enumeration guard was exceeded; guards are hard errors, never silent truncation."""


class CertificateError(FctpError):
    """An exact certificate check failed; signals an implementation bug."""
