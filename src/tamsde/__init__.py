"""Adaptive tamed Milstein integration for scalar SDEs.

The package simulates dX = mu(X) dt + sigma(X) dW for coefficients with
superlinear growth and limited smoothness, using a tamed Milstein step on
a state-adaptive clock, and measures its strong convergence against a
fixed-step tamed Milstein baseline.

Layers, bottom up: model (coefficient functions and regularity
constants), scheme (one-step maps and single-path simulation), driver
(coupled two-resolution paths on one Brownian motion), montecarlo
(estimators over many paths), analysis (rate regression and
scheme comparison), cli (experiment runner).  The package exports each
layer's __all__ below cli; cli and the compiled kernel (kernel) are
imported by name.
"""

from . import analysis, driver, errors, model, montecarlo, scheme
from .analysis import *
from .driver import *
from .errors import *
from .model import *
from .montecarlo import *
from .scheme import *

__version__ = "0.1.0"

__all__ = ["__version__", *analysis.__all__, *driver.__all__, *errors.__all__,
           *model.__all__, *montecarlo.__all__, *scheme.__all__]
