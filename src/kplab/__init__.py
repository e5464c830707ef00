"""kplab: a pseudo-spectral laboratory for the 3-D KP-II equation."""

__version__ = "0.1.0"
