"""repro — a monitoring system for LoRa mesh networks.

Reproduction of Capella Del Solar, Solé & Freitag, *Towards a Monitoring
System for a LoRa Mesh Network* (ICDCS 2022), as a complete simulated
stack: SX127x-class PHY, LoRaMesher-style distance-vector mesh (plus a
managed-flooding baseline), and — the paper's contribution — a monitoring
client on every node shipping per-packet and node-status telemetry to a
server with a dashboard, alerting and an HTTP API.

Quick start::

    from repro.api import Dashboard, ScenarioConfig, run_scenario

    with run_scenario(ScenarioConfig(n_nodes=16, duration_s=1800)) as result:
        print(Dashboard(result.store).render_text(result.sim.now))

The ``with`` block flushes and closes the monitoring store on exit
(``ScenarioResult`` is a context manager); equivalently, call
``result.close()`` when done.

See README.md for the architecture overview and DESIGN.md for the
experiment index.
"""

__version__ = "1.0.0"
