"""LoRa physical-layer model (SX127x-class radios).

Implements the standard simulation components used by LoRaSim-style studies:

* time-on-air per Semtech AN1200.13 / SX1276 datasheet (``airtime``),
* link budget: log-distance path loss with shadowing, per-SF sensitivity,
  SNR demodulation floors (``link``),
* collision model with frequency, spreading-factor quasi-orthogonality,
  capture effect and critical-section timing (``collision``),
* radio state machine with per-state current draw for energy accounting
  (``radio``),
* a shared-medium channel arbiter that ties the above into the discrete
  event simulator (``channel``),
* EU868 regional constraints: channel plan and per-band duty cycle
  (``regional``).
"""
