"""Zero-sound dispersion toolkit for a Fermi liquid with de Broglie diffraction.

The collective mode above the particle-hole continuum is governed by the
single dimensionless coupling A = Q0 + (3/4)(k lambda_d)^2.  This package
solves the exact dispersion relation, provides its weak- and
strong-coupling closed forms, and cross-checks everything against two
independent discrete oracles (a secular eigenproblem and direct kinetic
time evolution with spectral peak extraction).
"""

from . import dispersion, errors, kinetic, model
from .dispersion import *
from .errors import *
from .kinetic import *
from .model import *

__version__ = "1.0.0"

__all__ = ["__version__", *dispersion.__all__, *errors.__all__, *kinetic.__all__, *model.__all__]
