"""Seeded benchmark of the uctensor library; see run.py."""
