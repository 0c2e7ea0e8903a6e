"""Geometric probability of intercepting a mobile intruder with a patrolling
sensor fleet: classical needle baseline, exact rotating-frame interception
geometry on a circular patrol, randomized-radius bounds, segment patrol, and
deterministic Monte Carlo machinery.

Each library module's `__all__` is its one list of public names; the package
re-exports all of them.  It does not import `patrolgeom.cli`, so importing
the package loads neither argparse nor numpy."""

__version__ = "0.1.0"

from . import buffon, circular, frames, linear, montecarlo, randomradius, scenario
from .buffon import *
from .circular import *
from .frames import *
from .linear import *
from .montecarlo import *
from .randomradius import *
from .scenario import *

__all__ = sorted(name for module in (buffon, circular, frames, linear, montecarlo,
                                     randomradius, scenario)
                 for name in module.__all__)
