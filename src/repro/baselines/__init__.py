"""Baseline systems the mesh is compared against."""
