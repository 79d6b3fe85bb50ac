"""Exception hierarchy shared across the package: every package error is a
ValidationError (the CLI exits 2) or a NumericalError (it exits 3)."""


class DuelBiasError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(DuelBiasError, ValueError):
    """Input violates a structural invariant (bad group label, self-duel, ...)."""


class NumericalError(DuelBiasError, RuntimeError):
    """A numerical routine failed to produce a finite result."""


class ParseError(ValidationError):
    """A file could not be parsed; carries the offending line number. The
    message reads ``{path}: line {line}: {message}``, each prefix where given."""

    def __init__(self, message, line=None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


class ReferentialError(ValidationError):
    """A record references an unknown item or category."""


class SizeMismatchError(ValidationError):
    """The two groups of a schedule must have equal sizes."""


class InfeasibleScheduleError(ValidationError):
    """The requested schedule cannot be realized."""


class DegenerateFitError(NumericalError, ValueError):
    """No duels and no regularization: the likelihood has no maximizer."""


class UnidentifiableItemsError(NumericalError, ValueError):
    """Items never appear in any duel and alpha is zero."""

    def __init__(self, item_ids):
        self.item_ids = tuple(item_ids)
        super().__init__(
            "items appear in no duel and cannot be identified without "
            f"regularization: {', '.join(map(str, self.item_ids))}"
        )


class UnstableBootstrapError(NumericalError):
    """More than 10% of bootstrap replicates failed."""
