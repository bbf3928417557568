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

_ENV_PREFIX = "ALGENTROPY_"


@dataclass(frozen=True)
class SessionConfig:
    tolerance: float = 1e-9
    max_steps: int = 64
    element_cap: int = 10**6
    output_mode: str = "json"

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_steps < 1:
            raise ValueError("step counts must be >= 1")
        if self.output_mode not in ("json", "text"):
            raise ValueError("output_mode must be 'json' or 'text'")

    def check_steps(self, n):
        """Raise BudgetExceededError when n steps exceed ``max_steps``."""
        if n > self.max_steps:
            raise BudgetExceededError(f"{n} steps exceed max_steps {self.max_steps}")


def default_config():
    """Defaults merged with any ALGENTROPY_* environment overrides."""
    kwargs = {}
    env = os.environ
    if _ENV_PREFIX + "TOLERANCE" in env:
        kwargs["tolerance"] = float(env[_ENV_PREFIX + "TOLERANCE"])
    if _ENV_PREFIX + "MAX_STEPS" in env:
        kwargs["max_steps"] = int(env[_ENV_PREFIX + "MAX_STEPS"])
    if _ENV_PREFIX + "ELEMENT_CAP" in env:
        kwargs["element_cap"] = int(env[_ENV_PREFIX + "ELEMENT_CAP"])
    if _ENV_PREFIX + "OUTPUT_MODE" in env:
        kwargs["output_mode"] = env[_ENV_PREFIX + "OUTPUT_MODE"]
    return SessionConfig(**kwargs)
