from stackbench import fleetgen

from repro.api import BinaryCodec, RecordBatch


def test_same_seed_gives_the_same_bytes():
    first = fleetgen.generate(7, 2)
    second = fleetgen.generate(7, 2)
    assert first.fingerprint() == second.fingerprint()
    assert [send.raw for interval in first.intervals for send in interval] == [
        send.raw for interval in second.intervals for send in interval
    ]
    assert first.networks == second.networks


def test_different_seeds_give_different_inputs():
    assert fleetgen.generate(7, 2).fingerprint() != fleetgen.generate(8, 2).fingerprint()


def test_batches_match_the_generator_truth():
    inputs = fleetgen.generate(3, 4)
    layout = fleetgen.network_layout()
    assert {net.network for net in inputs.networks} == {net for net, _, _ in layout}
    assert {send.codec for interval in inputs.intervals for send in interval} == {"json", "binary"}
    nodes = sum(size for _, size, _ in layout)
    first_sends = [send for interval in inputs.intervals for send in interval if not send.resend]
    assert len(first_sends) == nodes * 4
    # Every second batch of a node carries a status record.
    assert sum(net.status_records for net in inputs.networks) == nodes * 2
    packets = sum(net.packet_records for net in inputs.networks)
    assert packets >= nodes * 4 * fleetgen.RECORDS_PER_BATCH
    assert inputs.unique_records == packets + nodes * 2
    resent = [send for interval in inputs.intervals for send in interval if send.resend]
    assert 0 < len(resent) < len(first_sends) * 0.15
    assert inputs.resent_records == sum(send.records for send in resent) > 0
    for net in inputs.networks:
        assert 0 < net.data_delivered < net.data_sent


def test_sends_decode_and_keep_server_time_monotone():
    inputs = fleetgen.generate(5, 3)
    binary = BinaryCodec()
    last = 0.0
    for index, interval in enumerate(inputs.intervals):
        for send in interval:
            assert send.at >= last
            assert index * fleetgen.INTERVAL_S <= send.at < (index + 1) * fleetgen.INTERVAL_S
            last = send.at
            if send.codec == "json":
                batch = RecordBatch.from_json_bytes(send.raw)
                assert batch.network_id == send.network
            else:
                batch = binary.decode(send.raw)
            assert batch.record_count == send.records
            assert all(record.timestamp <= send.at for record in batch.packet_records)
