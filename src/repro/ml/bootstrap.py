"""Bootstrap resampling utilities.

The confidence score (paper Section 3.4, Figure 7) is "derived by
bootstrapping the raw customer performance data ... and obtaining the
optimal SKU from this process multiple times.  The confidence score is
the proportion of bootstrapped runs that have the same recommendation
as the original."

Two resampling modes are provided:

* :func:`bootstrap_indices` -- classic iid resampling with replacement;
* :func:`block_bootstrap_indices` -- contiguous-window resampling,
  which respects the autocorrelation of counter series and is what the
  window-size sweep of paper Figure 10 varies.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["bootstrap_indices", "block_bootstrap_indices", "resolve_rng"]


def resolve_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Normalize a seed or generator into a :class:`numpy.random.Generator`.

    Every stochastic entry point in the library funnels through this
    helper so all randomness is explicitly seedable.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def bootstrap_indices(
    n_samples: int,
    n_rounds: int,
    rng: int | np.random.Generator | None = None,
    sample_fraction: float = 1.0,
) -> Iterator[np.ndarray]:
    """Yield ``n_rounds`` index arrays drawn iid with replacement.

    Args:
        n_samples: Size of the original sample.
        n_rounds: Number of bootstrap rounds.
        rng: Seed or generator.
        sample_fraction: Size of each resample relative to the
            original ("using a random subset of the data", paper
            Section 3.4).
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples!r}")
    if n_rounds <= 0:
        raise ValueError(f"n_rounds must be positive, got {n_rounds!r}")
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError(f"sample_fraction must be in (0, 1], got {sample_fraction!r}")
    generator = resolve_rng(rng)
    size = max(1, int(round(n_samples * sample_fraction)))
    for _ in range(n_rounds):
        yield generator.integers(0, n_samples, size=size)


def block_bootstrap_indices(
    n_samples: int,
    n_rounds: int,
    window: int,
    rng: int | np.random.Generator | None = None,
) -> Iterator[np.ndarray]:
    """Yield contiguous random windows of length ``window``.

    Each round selects one random start offset and returns the
    contiguous index range -- the "bootstrap window size" of paper
    Figure 10.

    Args:
        n_samples: Size of the original sample.
        n_rounds: Number of rounds.
        window: Window length in samples; clipped to ``n_samples``.
        rng: Seed or generator.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples!r}")
    if n_rounds <= 0:
        raise ValueError(f"n_rounds must be positive, got {n_rounds!r}")
    if window <= 0:
        raise ValueError(f"window must be positive, got {window!r}")
    generator = resolve_rng(rng)
    length = min(window, n_samples)
    max_start = n_samples - length
    for _ in range(n_rounds):
        start = int(generator.integers(0, max_start + 1))
        yield np.arange(start, start + length)
