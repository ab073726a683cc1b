"""Reduced-order suboptimal MPC for two-timescale plants, with stability certification."""

__version__ = "0.1.0"
