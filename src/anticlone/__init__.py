"""Quantum anti-cloning verification lab.

Universal anti-cloning (one aligned copy, one anti-aligned copy, optimal
shrinking factor 1/3), its numerical re-derivation by direct optimization,
and probabilistic exact anti-cloning with Gram-matrix feasibility
certificates.

The package root holds only ``__version__``; import the submodules
(``anticlone.machine``, ``anticlone.cli``, ...) for everything else.
"""

__version__ = "0.1.0"
