"""Toolkit for the m-player hypercube labelling game.

Computes the game's classical value exactly by enumeration, its quantum
value through GHZ statevector simulation plus a one-parameter
maximisation, and a perfect no-signalling correlation with exact rational
verification, together with numerical checks of the supporting operator
inequalities.

Imported before numpy, hcgame runs BLAS on one thread: it sets
OPENBLAS_NUM_THREADS and MKL_NUM_THREADS to 1 unless one of them or
OMP_NUM_THREADS is already set.

The package namespace holds the modules only, all loaded by ``import hcgame``;
public names are imported from their modules: ``from hcgame.quantum import QuantumStrategy``.
"""

import os
import sys

# Every kernel works on 2x2 gates or operators of at most 64 dimensions, so
# BLAS threads never help, and OpenBLAS's idle workers spin: about 40% of a
# run's CPU on two cores.  numpy reads these once, when it first loads.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(name in os.environ for name in _BLAS_THREADS):
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["MKL_NUM_THREADS"] = "1"

from . import classical, game, inequalities, linalg, nosignalling, quantum

__version__ = "0.1.0"
