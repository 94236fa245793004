"""Closed-form kernel mean embeddings, with a numerical oracle and
Bayesian quadrature / MMD consumers built on top of them."""

from . import combinators, dictionary, errors, kernels, measures, oracle, quadrature, stein
from .combinators import *  # noqa: F401,F403
from .dictionary import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .stein import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *combinators.__all__,
    *dictionary.__all__,
    *errors.__all__,
    *kernels.__all__,
    *measures.__all__,
    *oracle.__all__,
    *quadrature.__all__,
    *stein.__all__,
]
