"""Offline analysis: topology reconstruction, ground-truth comparison,
anomaly detection and report generation."""
