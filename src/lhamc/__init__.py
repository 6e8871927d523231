"""Explicit-state simulation and LTL model checking for linear hybrid
automata under discrete time sampling, exact to the rational."""

__version__ = "0.1.0"

from .core import ModelError, ModelWarning, TimedTransitionSystem, as_time, parse_rational

__all__ = [
    "ModelError",
    "ModelWarning",
    "TimedTransitionSystem",
    "as_time",
    "parse_rational",
    "__version__",
]
