"""Application traffic generators."""
