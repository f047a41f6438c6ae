"""Stochastic digital twin of a few-atom MOT / optical dipole trap experiment.

Deterministic trap physics (atomtrap.physics), exact stochastic kinetics
(atomtrap.kinetics), photon-count signal synthesis (atomtrap.signals),
statistical recovery of the physics from the signals (atomtrap.analysis),
timing protocols (atomtrap.sequence) and figure-level experiment drivers
(atomtrap.runner). All randomness flows through counter-based per-run
streams (atomtrap.streams), so every result is a pure function of the
configuration and a master seed.
"""

from .physics import *
from .kinetics import *
from .signals import *
from .analysis import *
from .sequence import *
from .streams import *
from .runner import *

__version__ = "0.1.0"
