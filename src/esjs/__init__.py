"""Goodness-of-fit via the empirical survival Jensen-Shannon divergence.

Fit parametric distributions to data by maximum likelihood, score the fits
with the divergence between empirical survival functions, attach bootstrap
confidence intervals, and rank competing families by divergence factors.
"""

from . import bootstrap, distributions, divergence, gof, seeds, survival
from .bootstrap import *  # noqa: F403
from .distributions import *  # noqa: F403
from .divergence import *  # noqa: F403
from .gof import *  # noqa: F403
from .seeds import *  # noqa: F403
from .survival import *  # noqa: F403

__version__ = "0.1.0"

# each public name is declared once, in its own module's __all__
__all__ = [
    *bootstrap.__all__, *distributions.__all__, *divergence.__all__,
    *gof.__all__, *seeds.__all__, *survival.__all__,
]
