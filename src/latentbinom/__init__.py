"""Binomial regression with latent gamma-Poisson group sizes.

The response is a binomial count whose size was never observed: sizes are
Poisson draws whose means follow a gamma distribution. Marginally the
response is negative-binomial-shaped in the success probability, and the
whole parameter vector (regression coefficients, size mean, gamma shape)
is estimable from the counts alone. The package provides the likelihood
machinery, Fisher information and efficiency comparisons against designs
with richer observation, maximum-likelihood fitting with a boundary-aware
test of the Poisson-size submodel, and a Monte Carlo study driver.
"""

from . import data_io, efficiency, estimation, information, model, simulation
from .data_io import *
from .efficiency import *
from .estimation import *
from .information import *
from .model import *
from .simulation import *

__version__ = "0.1.0"

# The library modules' public names; cli, the command-line front end, is
# left out so that importing the package loads no argparse.
__all__ = [*data_io.__all__, *efficiency.__all__, *estimation.__all__,
           *information.__all__, *model.__all__, *simulation.__all__,
           "__version__"]
