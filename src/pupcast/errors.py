"""Exception hierarchy shared by all pupcast modules."""


class PupcastError(Exception):
    """Base class for all pupcast errors."""


class ValidationError(PupcastError):
    """Malformed input data (CSV rows, inconsistent records, bad config)."""


class UnknownStatus(PupcastError):
    """A status index outside the configured flowchart was requested."""


class MissingKernel(PupcastError):
    """A status was never fitted: the kernel holds no pmf for it.  Every
    fitted status resolves every context, through its pooled level."""


class EmptyLog(PupcastError):
    """An estimator was given a log with no usable rows."""


class NoCompletedTransitions(PupcastError):
    """No parcel completed the requested transition before the cutoff."""


class InsufficientHistory(PupcastError):
    """A forecaster needs more history than was provided."""


class ImpossibleEvidence(PupcastError):
    """Observed evidence has zero probability under the kernel.

    Typically an observed holding time beyond the pmf support: the kernel
    says the transition must already have happened.
    """


class TooLarge(PupcastError):
    """Exhaustive enumeration would exceed the configured path budget."""


class InvalidQuantile(PupcastError):
    """Quantile level outside (0, 1)."""
