"""Seeded crafting-tree simulator, belief-graph exploration agent, and
reproducible experiment harness."""

__version__ = "0.1.0"
