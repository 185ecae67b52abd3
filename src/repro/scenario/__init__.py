"""Declarative scenarios: build, run and measure a full deployment."""
