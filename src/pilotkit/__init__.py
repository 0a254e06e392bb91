"""Pilot assignment toolkit for cell-free massive MIMO.

Models systems of distributed access points serving users, evaluates
uplink rates and the pilot-contamination objective, converts instances
to and from weighted-graph Min-k-Partition form with objective-value
preservation, and solves assignments exactly (desk scale) or
heuristically.
"""

# Each module's __all__ is the one list of its public names.
from . import objective, reductions, solvers, system_model
from .objective import *
from .reductions import *
from .solvers import *
from .system_model import *

__version__ = "0.1.0"

__all__ = system_model.__all__ + objective.__all__ + reductions.__all__ + solvers.__all__
__all__ += ["__version__"]
