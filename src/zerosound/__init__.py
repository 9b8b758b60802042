"""Zero-sound dispersion toolkit for a Fermi liquid with de Broglie diffraction.

The collective mode above the particle-hole continuum is governed by the
single dimensionless coupling A = Q0 + (3/4)(k lambda_d)^2.  This package
solves the exact dispersion relation, provides its weak- and
strong-coupling closed forms, and cross-checks everything against two
independent discrete oracles (a secular eigenproblem and direct kinetic
time evolution with spectral peak extraction).

The oracles' module, kinetic, loads on first use of it or of one of its
names (PEP 562), so `import zerosound` compiles only what the exact
solver needs.
"""

from . import dispersion, errors, model
from .dispersion import *
from .errors import *
from .model import *

__version__ = "1.0.0"


def _kinetic():
    # import_module, not `from . import kinetic`: that would look the name up
    # on this package first, and so call __getattr__ again
    from importlib import import_module

    return import_module(".kinetic", __name__)


def __getattr__(name):
    kinetic = _kinetic()
    if name == "kinetic":
        return kinetic
    if name == "__all__":
        return ["__version__", *dispersion.__all__, *errors.__all__, *kinetic.__all__, *model.__all__]
    if name in kinetic.__all__:
        return getattr(kinetic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "kinetic", "__all__", *_kinetic().__all__})
