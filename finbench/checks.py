"""Output checks for the benchmark.

A failed check records a message instead of raising, so one bad output counts
against the run's failure rate without stopping the run.
"""

from __future__ import annotations

import numpy as np

# Relative slack when comparing sampling variances computed from different
# count vectors: msv is the exact minimum, so only rounding can put it above.
SV_RTOL = 1e-9


def documented_draws(scheme: str, weights: np.ndarray, n: int) -> int:
    """Uniforms one call of ``scheme`` is documented to consume.

    ``weights`` must be the normalised vector the library stores, so that
    the residual floors L = sum(Floor(n*w)) match the library's bit for bit.
    """
    if scheme == "multinomial":
        return n
    if scheme == "residual":
        return n - int(np.floor(n * weights).sum())
    if scheme in ("systematic", "rsr"):
        return 1
    if scheme == "msv":
        return 0
    raise KeyError(scheme)


def sampling_variance(counts: np.ndarray, weights: np.ndarray, n: int) -> float:
    """Mean squared discrepancy between counts and n*w, computed independently."""
    d = counts - n * weights
    return float(np.mean(d * d))


class Checker:
    """Collects failed checks as messages."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return bool(ok)

    def counts(self, counts, m: int, n: int, label: str) -> bool:
        """A count vector has length m, integer entries >= 0, and sums to n."""
        c = np.asarray(counts)
        if c.ndim != 1 or c.shape[0] != m:
            return self.expect(False, f"{label}: {c.shape[0] if c.ndim == 1 else c.shape} "
                                      f"counts for {m} particles")
        if not np.issubdtype(c.dtype, np.integer):
            return self.expect(False, f"{label}: counts have dtype {c.dtype}")
        if c.size and int(c.min()) < 0:
            return self.expect(False, f"{label}: negative count {int(c.min())}")
        total = int(c.sum())
        return self.expect(total == n, f"{label}: counts sum to {total}, expected {n}")

    def draws(self, scheme: str, used: int, weights: np.ndarray, n: int,
              label: str) -> bool:
        want = documented_draws(scheme, weights, n)
        return self.expect(used == want,
                           f"{label}: {scheme} drew {used} uniforms, documented {want}")

    def msv_dominates(self, svs: dict[str, float], label: str) -> bool:
        """msv's sampling variance is no larger than any other scheme's."""
        if "msv" not in svs:
            return True
        best = svs["msv"]
        worse = {m: v for m, v in svs.items()
                 if m != "msv" and best > v + SV_RTOL * max(1.0, abs(v))}
        return self.expect(not worse, f"{label}: msv sv {best!r} exceeds {worse}")
