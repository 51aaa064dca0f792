"""The errors the CLI maps to exit codes, in a module that imports nothing.

`worth`, `combinatorics` and `replicator` raise them and re-export them, so
they import from either place; the CLI reads them from here, so mapping an
error to its exit code loads no module a command did not run.
"""


class SymmetryViolation(ValueError):
    """Two same-size coalitions disagree by more than the tolerance."""

    def __init__(self, coalition_a: tuple[int, ...], worth_a: float,
                 coalition_b: tuple[int, ...], worth_b: float) -> None:
        self.coalition_a = coalition_a
        self.worth_a = worth_a
        self.coalition_b = coalition_b
        self.worth_b = worth_b
        self.gap = abs(worth_a - worth_b)
        super().__init__(
            f"symmetry violation: v({set(coalition_a)}) = {worth_a} but "
            f"v({set(coalition_b)}) = {worth_b} (gap {self.gap})"
        )


class EnumerationTooLarge(ValueError):
    """Raised when a full set-partition enumeration would exceed the cap."""


class IntegrationError(RuntimeError):
    """Integration aborted: non-finite state or a vanished population."""


class TooManySamples(ValueError):
    """A run would record over MAX_SAMPLES states after t=0, or draw over MAX_TRIALS trials."""
