"""Discrete-event simulation kernel.

The kernel is intentionally small: an event queue ordered by (time, priority,
sequence), periodic and one-shot timers, and named seeded RNG streams so every
stochastic subsystem (channel fading, MAC backoff, traffic, uplink loss) draws
from an independent, reproducible stream.
"""
