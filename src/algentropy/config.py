"""Session-wide numeric and budget knobs.

Defaults match the documented contract: certified tolerance 1e-9,
step cap 64, element cap 10^6.  Environment variables override the
defaults; explicit CLI flags override both.  Every stabilization stops
at a proven limit; ``max_steps`` only bounds how far it looks for it.
"""

import os
from dataclasses import dataclass

from .errors import BudgetExceededError

__all__ = ["SessionConfig", "default_config"]

# field, environment variable, conversion
_ENV = (
    ("tolerance", "ALGENTROPY_TOLERANCE", float),
    ("max_steps", "ALGENTROPY_MAX_STEPS", int),
    ("element_cap", "ALGENTROPY_ELEMENT_CAP", int),
    ("output_mode", "ALGENTROPY_OUTPUT_MODE", str),
)


@dataclass(frozen=True)
class SessionConfig:
    tolerance: float = 1e-9
    max_steps: int = 64
    element_cap: int = 10**6
    output_mode: str = "json"

    def __post_init__(self):
        if not self.tolerance > 0:  # NaN fails every comparison
            raise ValueError("tolerance must be positive")
        if self.max_steps < 1:
            raise ValueError("step counts must be >= 1")
        if self.element_cap < 0:
            raise ValueError("element cap must be >= 0")
        if self.output_mode not in ("json", "text"):
            raise ValueError("output_mode must be 'json' or 'text'")

    def check_steps(self, n):
        """Raise BudgetExceededError when n steps exceed ``max_steps``."""
        if n > self.max_steps:
            raise BudgetExceededError(f"{n} steps exceed max_steps {self.max_steps}")


def default_config():
    """Defaults merged with any ALGENTROPY_* environment overrides."""
    kwargs = {}
    for field, name, convert in _ENV:
        if name in os.environ:
            try:
                kwargs[field] = convert(os.environ[name])
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
    return SessionConfig(**kwargs)
