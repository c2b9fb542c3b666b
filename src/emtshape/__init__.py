"""Contracted elastic moment tensors of a planar inclusion and analytic
two-step recovery of its boundary."""

__version__ = "0.1.0"
