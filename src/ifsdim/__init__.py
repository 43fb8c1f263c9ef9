"""Hausdorff dimension, conformal measures and convergence diagnostics for
contracting map systems on the line."""

# cli is left to load on first use, so `python -m ifsdim.cli` runs it fresh
from . import config, dimension, measures, pressure, symbolic, systems, transfer

__version__ = "0.1.0"

__all__ = [
    "cli",
    "config",
    "dimension",
    "measures",
    "pressure",
    "symbolic",
    "systems",
    "transfer",
    "__version__",
]
