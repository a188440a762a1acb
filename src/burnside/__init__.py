"""Exact Burnside-ring computations and Artin/Brauer induction certificates."""

__version__ = "0.1.0"
