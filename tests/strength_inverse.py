"""Inverse of the strength dictionary, for tests that pick an angle by strength.

``theta_for_strength(K, s)`` returns the angle in [0, arccos(2**(-K/2))]
at which a K-round meter has strength ``s``.  Only the interpolation
range [0, 1] is invertible; other targets raise ``DomainError``.
"""

import math

from vsmsim.errors import DomainError


def theta_for_strength(rounds: int, target: float) -> float:
    if rounds < 1:
        raise DomainError(f"rounds must be at least 1, got {rounds}")
    if not 0.0 <= target <= 1.0:
        raise DomainError(f"strength must lie in [0, 1], got {target!r}")
    d = 1 << rounds
    cos_sq = (target * (d - 1.0) + 1.0) / d
    return math.acos(math.sqrt(min(cos_sq, 1.0)))
