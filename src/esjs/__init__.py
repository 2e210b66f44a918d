"""Goodness-of-fit via the empirical survival Jensen-Shannon divergence.

Fit parametric distributions to data by maximum likelihood, score the fits
with the divergence between empirical survival functions, attach bootstrap
confidence intervals, and rank competing families by divergence factors.
"""

import gc

# The imports, numpy's included, make tens of thousands of lasting objects
# and little garbage, so they run without collections; a freeze and unfreeze
# then move those objects to the oldest generation, so that their count
# starts no collection either.  The importer's settings and frozen objects stay.
_collecting = gc.isenabled()
gc.disable()
try:
    from . import bootstrap, distributions, divergence, gof, seeds, survival
    from .bootstrap import *  # noqa: F403
    from .distributions import *  # noqa: F403
    from .divergence import *  # noqa: F403
    from .gof import *  # noqa: F403
    from .seeds import *  # noqa: F403
    from .survival import *  # noqa: F403
finally:
    if not gc.get_freeze_count():
        gc.freeze()
        gc.unfreeze()
    if _collecting:
        gc.enable()

__version__ = "0.1.0"

# each public name is declared once, in its own module's __all__
__all__ = [
    *bootstrap.__all__, *distributions.__all__, *divergence.__all__,
    *gof.__all__, *seeds.__all__, *survival.__all__,
]
