"""Property: a patched link table equals a rebuilt one.

A move or an injected attenuation change drops no link table; the next
lookup of a table whose sender did not change re-evaluates only the
changed nodes' entries.  One grid index is driven here through random
interleavings of moves, attenuation changes and lookups by several
senders at several spreading factors, with shadowing and fading on.
After every lookup its table must equal the table a freshly bound
:class:`GridReachabilityIndex` builds for the same positions, seed and
attenuations: the same nodes, in the same order, with bit-identical
static RSSI values.
"""

import random
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Channel,
    GridReachabilityIndex,
    LinkBudgetCache,
    LinkModel,
    LoRaParams,
    PathLossParams,
    Topology,
)

#: The equivalence tests' harsh propagation: solid, marginal and hopeless
#: links all appear in a 600 m square.
PATH_LOSS = PathLossParams(shadowing_sigma_db=6.0, fast_fading_sigma_db=2.0)

coordinates = st.tuples(
    st.floats(0.0, 600.0, allow_nan=False, allow_infinity=False),
    st.floats(0.0, 600.0, allow_nan=False, allow_infinity=False),
)

steps = st.lists(
    st.one_of(
        st.tuples(st.just("move"), st.integers(0, 99), coordinates),
        st.tuples(
            st.just("attenuate"),
            st.integers(0, 99),
            st.integers(0, 99),
            st.floats(0.0, 40.0, allow_nan=False, allow_infinity=False),
        ),
        # The four senders' tables at one spreading factor, in a random
        # order, so most tables are looked up again after a change: the
        # patch path.
        st.tuples(st.just("lookup"), st.permutations(range(4)), st.integers(7, 9)),
    ),
    min_size=10,
    max_size=60,
)


def bound_grid(positions, seed, attenuations):
    topology = Topology(positions=dict(positions))
    link = LinkModel(PATH_LOSS, random.Random(seed))
    for (a, b), extra_db in attenuations.items():
        link.set_link_attenuation(a, b, extra_db)
    index = GridReachabilityIndex()
    index.bind(topology, link, LinkBudgetCache(topology, link), Channel.CAD_MARGIN_DB)
    return topology, link, index


def exact(table):
    """A table's entries in order, each RSSI as its IEEE 754 bytes."""
    return [(node, struct.pack("<d", rssi)) for node, rssi in table.items()]


@settings(max_examples=200, deadline=None)
@given(
    positions=st.lists(coordinates, min_size=3, max_size=12, unique=True),
    seed=st.integers(0, 2**32 - 1),
    script=steps,
)
def test_patched_table_equals_rebuilt(positions, seed, script):
    nodes = list(range(1, len(positions) + 1))
    current = dict(zip(nodes, positions))
    attenuations = {}
    topology, link, index = bound_grid(current, seed, attenuations)
    for step in script:
        if step[0] == "move":
            node = nodes[step[1] % len(nodes)]
            current[node] = step[2]
            topology.move(node, step[2])
        elif step[0] == "attenuate":
            a, b = nodes[step[1] % len(nodes)], nodes[step[2] % len(nodes)]
            if a == b:
                continue
            attenuations[(min(a, b), max(a, b))] = step[3]
            link.set_link_attenuation(a, b, step[3])
        else:
            params = LoRaParams(spreading_factor=step[2])
            for sender_index in step[1]:
                sender = nodes[sender_index % len(nodes)]
                table = index.link_table(sender, params)
                _, _, fresh = bound_grid(current, seed, attenuations)
                assert exact(table) == exact(fresh.link_table(sender, params))
