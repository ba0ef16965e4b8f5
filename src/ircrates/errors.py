"""Error types shared across the protocol modules.

Infeasibility (a parameter choice no code can satisfy, e.g. a zero relay
broadcast rate for single-level compression) is distinct from invalid input,
a caller bug that raises ValueError.  A one-channel call raises either; a block
kernel marks the cell with NaN rates instead, and ``scenario._refusal`` says why.
"""


class InfeasibleError(Exception):
    """The requested operating point admits no finite-rate solution."""


class ConfigError(ValueError):
    """Malformed scenario configuration; the message names the field."""


class ConstraintViolationError(ValueError):
    """A supplied parameter violates a protocol constraint.

    The message names the violated bound so sweep drivers and the CLI can
    report which constraint failed.
    """

    def __init__(self, bound_name: str, value: float, bound: float):
        self.bound_name = bound_name
        self.value = value
        self.bound = bound
        super().__init__(
            f"{bound_name}: got {value!r}, requires >= {bound!r}"
        )
