"""Fully-adaptive composition for Gaussian differential privacy, executably.

The package provides the budget filter that admits a query iff the running
sum of squared spends stays within the total squared budget, an interactive
Gaussian curator over a secret bit, a one-Gaussian-input simulator built on
an online Cholesky factorization of I - m m^T, and a Monte-Carlo harness
that certifies the simulator's transcripts are distributed identically to
the real curator's under adaptive adversaries.

The command line (``gdpsim.cli``) is the main surface.  Every other name is
imported from the module that defines it (``gdpsim.budget``,
``gdpsim.curator``, ``gdpsim.harness``, ...); the package root exports only
what the README documents.
"""

from .harness import parse_transcripts

__version__ = "0.1.0"

__all__ = ["__version__", "parse_transcripts"]
