"""The errors the CLI maps to exit codes, in a module that imports nothing.

`worth`, `combinatorics` and `replicator` raise them and re-export them, so
they import from either place; the CLI reads them from here, so mapping an
error to its exit code loads no module a command did not run. The fixed bounds live here
too: MAX_ENUMERATION_M behind EnumerationTooLarge, MAX_SAMPLES and MAX_STATE_VALUES behind
TooManySamples, and MAX_CLOSED_FORM_M and MAX_PLANES_M behind ClosedFormTooLarge.
"""


class SymmetryViolation(ValueError):
    """Two same-size coalitions disagree by more than the tolerance."""

    def __init__(self, coalition_a: tuple[int, ...], worth_a: float,
                 coalition_b: tuple[int, ...], worth_b: float) -> None:
        self.coalition_a = coalition_a
        self.worth_a = worth_a
        self.coalition_b = coalition_b
        self.worth_b = worth_b
        gap = abs(worth_a - worth_b)  # correctly rounded, so inf only past the float range
        self.gap = None if gap == float("inf") else gap
        super().__init__(
            f"symmetry violation: v({set(coalition_a)}) = {worth_a} but v({set(coalition_b)}) = "
            f"{worth_b} (gap {'beyond the float range' if self.gap is None else gap})"
        )

    def __reduce__(self):  # pickle and copy rebuild through __init__, not from the message
        return type(self), (self.coalition_a, self.worth_a, self.coalition_b, self.worth_b)


class EnumerationTooLarge(ValueError):
    """m beyond MAX_ENUMERATION_M, refused by the walker before it visits any partition."""


class IntegrationError(RuntimeError):
    """Integration aborted: non-finite state or a vanished population."""


MAX_ENUMERATION_M = 12  # B_12 = 4 213 597 structures, and B_13 is 6.6 times as many
MAX_SAMPLES = 1_000_000
# m x recorded states, t = 0 included; m <= 10 keeps every sample count. Peak (tracemalloc)
# and time at it, x86-64: 322 MB, 2.7 s at m = 1 500; ~464 MB, 4.2 s at m = 10 (10x 10^5 run).
MAX_STATE_VALUES = 10 * (MAX_SAMPLES + 1)
MAX_CLOSED_FORM_M = 1500  # B_1500 has 3 108 digits, below CPython's 4 300-digit str() limit
MAX_PLANES_M = 200  # planes prints m^2 exact entries: 18.7 MB at m = 200, 166 MB at m = 400


class TooManySamples(ValueError):
    """A run past MAX_SAMPLES states after t=0 or MAX_STATE_VALUES values, or MAX_SAMPLES trials."""


class ClosedFormTooLarge(ValueError):
    """m beyond MAX_CLOSED_FORM_M, or beyond MAX_PLANES_M for planes, refused before the work."""
