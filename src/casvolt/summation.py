"""Truncation control and the symmetric image-sum engine.

The dual-plate quantities are sums over image index n = ..., -2, -1, 1, 2, ...
(n = 0 excluded). Terms are accumulated in symmetric +n/-n pairs moving
outward; the sum stops at the first n whose caller-supplied rigorous tail
bound drops below the requested relative tolerance of the running total. The
tail bound, not the last term, is what certifies the truncation.

The engine evaluates its callables on blocks of indices: pair_term and
tail_bound each take a float ndarray of indices and return an ndarray of the
same length. Running totals within a block are formed left to right, exactly
as a one-index-at-a-time loop would add them, so the stop index does not
depend on how the indices are blocked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import ConvergenceError, DomainError

if TYPE_CHECKING:
    from numpy import ndarray

__all__ = ["SummationControl", "SummationResult", "sum_symmetric_images"]

# Most indices handed to pair_term or tail_bound in one call. Bounds the
# memory of a block, whose temporaries scale with its length, and the work
# spent past the stop when the stop prediction overshoots.
_BLOCK_CAP = 4096
# Length of the first block. The leading pair terms carry nearly all of the
# sum, so the stop predicted against the total after them is close to the
# true stop, where a prediction against the base alone can overshoot it
# several times over.
_HEAD_BLOCK = 16


@dataclass(frozen=True)
class SummationControl:
    """Relative truncation tolerance and the hard cap on the image index."""

    tol: float = 1e-10
    n_max: int = 10**6

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < 1.0:
            raise DomainError(f"tol must lie in (0, 1), got {self.tol!r}")
        if self.n_max < 1:
            raise DomainError(f"n_max must be >= 1, got {self.n_max!r}")


@dataclass(frozen=True)
class SummationResult:
    value: float
    terms_used: int       # largest |n| included
    tail_estimate: float  # certified bound on the dropped tail


def sum_symmetric_images(
    pair_term: Callable[[ndarray], ndarray],
    tail_bound: Callable[[ndarray], ndarray],
    control: SummationControl,
    base: float = 0.0,
    n_min: int = 1,
) -> SummationResult:
    """Sum base + sum_{n>=n_min} pair_term(n) with a certified tail.

    Both callables take a float ndarray of consecutive indices and return an
    ndarray of the same length. pair_term must give, for each n, the
    combined contribution of +n and -n. tail_bound must give, for each N, an
    upper bound on sum_{n>N} |pair_term(n)| (inf signals "no valid bound yet
    at this N", e.g. inside a pole-dominated head region). Neither is called
    with more than _BLOCK_CAP indices or with an index beyond control.n_max.

    The sum stops at the first n with tail_bound(n) <= tol * |running(n)|,
    running(n) being base plus the pair terms up to n added left to right;
    the returned value is their compensated sum. Raises ConvergenceError if
    the bound has not certified tol by n_max.
    """
    import numpy as np

    blocks = []
    running = base
    bound = math.inf
    start = n_min
    size = _HEAD_BLOCK
    while start <= control.n_max:
        ns = np.arange(start, min(start + size, control.n_max + 1), dtype=float)
        bounds = tail_bound(ns)
        # While the terms are nonnegative the running total only grows, so
        # the first index certified against the current total is at or past
        # the true stop: end the block there.
        predicted = np.flatnonzero(bounds <= control.tol * abs(running))
        if predicted.size:
            ns, bounds = ns[: predicted[0] + 1], bounds[: predicted[0] + 1]
        terms = pair_term(ns)
        blocks.append(terms)
        totals = np.add.accumulate(np.concatenate(([running], terms)))[1:]
        stops = np.flatnonzero(bounds <= control.tol * np.abs(totals))
        if stops.size:
            k = int(stops[0])
            blocks[-1] = terms[: k + 1]
            # deterministic compensated accumulation for the returned value
            value = math.fsum([base, *np.concatenate(blocks).tolist()])
            return SummationResult(value=value, terms_used=start + k,
                                   tail_estimate=float(bounds[k]))
        running = float(totals[-1])
        bound = float(bounds[-1])
        start += ns.size
        size = _BLOCK_CAP
    raise ConvergenceError(
        f"image sum not certified below relative tolerance {control.tol:g} "
        f"within n_max={control.n_max} terms (last tail bound {bound:.3e})"
    )
