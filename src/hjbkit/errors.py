"""Exception types shared across the package, and the checks every module
shares: a positive, finite number, an integer count (a size, stride or
seed) in its range and a step count that fits int64."""

import numbers


class HjbkitError(Exception):
    """Base of every error hjbkit raises on purpose."""


class ParameterError(HjbkitError, ValueError):
    """Invalid parameter value."""


def _positive_finite(**values):
    """``ParameterError`` naming the first of ``values`` not in ``(0, inf)``."""
    for name, value in values.items():
        if not 0 < value < float("inf"):
            raise ParameterError(f"{name} must be positive and finite")


def _count(low, bits=63, **values):
    """``ParameterError`` naming the first of ``values`` not an integer (a
    whole float is not) in ``[low, 2**bits)``; sizes are counted in int64."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise ParameterError(f"{name} must be an integer, not {value!r}")
        if not low <= value < 2 ** bits:
            raise ParameterError(f"{name} must be >= {low} and < 2**{bits}")


def _step_count(name, span, dt):
    """``span / dt`` as a Python float, below 2**63 (steps are counted in
    int64), or a ``ParameterError`` naming both; a ``dt`` of 0 counts as an
    infinite quotient."""
    span, dt = float(span), float(dt)
    n = span / dt if dt else float("inf")  # overflows to inf without a warning
    if not n < 2 ** 63:
        raise ParameterError(f"{name} {span!r} over dt {dt!r} overflows int64")
    return n


class CoefficientError(HjbkitError):
    """A coefficient map returned a non-finite value on a finite input."""

    def __init__(self, name, y, delta=None):
        self.name = name
        self.y = y
        self.delta = delta
        at = f"y={y!r}" if delta is None else f"y={y!r}, delta={delta!r}"
        super().__init__(f"coefficient {name!r} is non-finite at {at}")


class RecordTimeError(ParameterError):
    """A Monte Carlo record time rounds to step 0 of the Euler grid."""


class StabilityError(HjbkitError):
    """Explicit time step violates the stability (CFL) condition."""

    def __init__(self, dt, dt_max, min_steps):
        self.dt = dt
        self.dt_max = dt_max
        self.min_steps = min_steps
        super().__init__(
            f"time step {dt:g} exceeds the stability limit {dt_max:g}; "
            f"use at least {min_steps} steps"
        )


class DivergenceError(HjbkitError):
    """The long-time march or an estimator blew past the overflow guard.

    Typically the discounted reward is not integrable over an infinite
    horizon for this model (discount rate too weak for the reward growth).
    """


class PolicyIterationError(HjbkitError):
    """Policy iteration does not apply to the model or did not converge.

    Raised for a discount rate ``h >= 0`` under a policy the iteration
    solves for, a non-finite linear solve, the iteration cap, or a solution
    the long-time march moves away from; the march is the fallback.
    """


class PathExclusionError(HjbkitError):
    """Too many simulated paths went non-finite to trust the estimate."""

    def __init__(self, excluded, total):
        self.excluded = excluded
        self.total = total
        super().__init__(
            f"{excluded} of {total} paths excluded (> 0.1% budget); "
            "the model likely overflows under this policy"
        )
