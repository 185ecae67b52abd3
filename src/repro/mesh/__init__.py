"""LoRa mesh protocol stack (LoRaMesher-style).

Layers, bottom-up:

* ``packet``: byte-level frame codec shared by all layers,
* ``mac``: CSMA/CAD medium access with per-hop ACK and retransmission,
* ``neighbors``: hello-beacon neighbor table with link-quality EWMAs,
* ``routing``: periodic distance-vector routing (the protocol LoRaMesher
  implements on ESP32 hardware),
* ``flooding``: managed-flooding alternative (Meshtastic-style), used as
  the protocol baseline in experiment F4,
* ``transport``: segmentation/reassembly for payloads beyond one frame,
* ``node``: the per-node runtime gluing everything together and exposing
  the packet in/out hooks the monitoring client attaches to.
"""
