"""Closed-form false-positive probabilities for both filter stages.

Conventions: a shape is (bits, hashes, elements) = (m, k, n) for a single
filter; f_s is the yes-stage FP probability, f_r the no-stage hit
probability, pr_s / pr_r the priors of membership and of being a stored
false positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class FilterShape:
    """Geometry of one filter: m bits, k hash functions, n stored elements."""

    bits: int
    hashes: int
    elements: int

    def __post_init__(self):
        if not self.bits >= 1:  # NaN too
            raise ValueError(f"bits must be positive, got {self.bits}")
        if not self.hashes >= 1:
            raise ValueError(f"hashes must be positive, got {self.hashes}")
        if not self.elements >= 0:
            raise ValueError(f"elements must be >= 0, got {self.elements}")


def bit_zero_prob(shape: FilterShape) -> float:
    """(1 - 1/m)^(k*n): chance a fixed bit stays clear after n inserts."""
    return (1.0 - 1.0 / shape.bits) ** (shape.hashes * shape.elements)


def fp_prob_exact(shape: FilterShape) -> float:
    """(1 - (1 - 1/m)^(k*n))^k, the closed form; a lower bound for k >= 2."""
    return (1.0 - bit_zero_prob(shape)) ** shape.hashes


def fp_prob_approx(shape: FilterShape) -> float:
    """(1 - e^(-k*n/m))^k, the exponential approximation of fp_prob_exact."""
    k, n, m = shape.hashes, shape.elements, shape.bits
    return (1.0 - math.exp(-k * n / m)) ** k


def _check_prob(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def pr_positive(pr_s: float, f_s: float) -> float:
    """Pr a query answers yes at the first stage: pr_s + (1 - pr_s) * f_s."""
    _check_prob("pr_s", pr_s)
    _check_prob("f_s", f_s)
    return pr_s + (1.0 - pr_s) * f_s


def pr_false_positive(pr_s: float, f_s: float) -> float:
    """Pr a query is a first-stage false positive: (1 - pr_s) * f_s."""
    _check_prob("pr_s", pr_s)
    _check_prob("f_s", f_s)
    return (1.0 - pr_s) * f_s


class PrResult(NamedTuple):
    """A probability that can come out negative when the priors disagree.

    value is reported as computed; consistent is False when it is negative,
    which signals mutually inconsistent inputs rather than being clamped.
    """

    value: float
    consistent: bool


def pr_E(pr_s: float, f_s: float, f_r: float, pr_r: float) -> PrResult:
    """Residual false-positive probability after the no-stage.

    (1-pr_s)*f_s - (pr_s + (1-pr_s)*f_s)*f_r - (1-f_r)*pr_r
    """
    _check_prob("pr_s", pr_s)
    _check_prob("f_s", f_s)
    _check_prob("f_r", f_r)
    _check_prob("pr_r", pr_r)
    value = ((1.0 - pr_s) * f_s
             - (pr_s + (1.0 - pr_s) * f_s) * f_r
             - (1.0 - f_r) * pr_r)
    return PrResult(value, value >= 0.0)


def pr_E_given_not_S(f_s: float, f_r: float, pr_r: float) -> PrResult:
    """Residual FP probability conditioned on non-membership.

    f_s*(1-f_r) - (1-f_r)*pr_r; equals pr_E with pr_s = 0.
    """
    _check_prob("f_s", f_s)
    _check_prob("f_r", f_r)
    _check_prob("pr_r", pr_r)
    value = f_s * (1.0 - f_r) - (1.0 - f_r) * pr_r
    return PrResult(value, value >= 0.0)


def f_E_single_no_filter(p: int, q: int, k: int, k_prime: int, n: int,
                         no_filter_load: float | None = None) -> float:
    """Approximate residual FP probability with one no-filter.

    (1 - e^(-k*n/p))^k * (1 - (1 - e^(-k'*load/q))^k'), where load is the
    number of elements stored in the no-filter. It defaults to n, the usual
    shortcut; pass the actual stored count when it is known, since the
    no-filter holds recorded false positives rather than members. Both
    factors are fp_prob_approx, so a shape FilterShape refuses raises
    ValueError.
    """
    load = float(n) if no_filter_load is None else float(no_filter_load)
    f_s = fp_prob_approx(FilterShape(p, k, n))
    f_r = fp_prob_approx(FilterShape(q, k_prime, load))
    return f_s * (1.0 - f_r)


def expected_fp_count(t_size: int, f_p: float) -> float:
    """Expected number of false positives among t_size queried non-members."""
    if not t_size >= 0:  # NaN too
        raise ValueError(f"t_size must be >= 0, got {t_size}")
    _check_prob("f_p", f_p)
    return t_size * f_p
