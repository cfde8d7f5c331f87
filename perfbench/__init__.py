"""Layered benchmark of geotrellis_contrib_ray; ``perfbench/run.py`` is the entry point."""
