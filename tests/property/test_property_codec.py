"""Property-based tests for the binary channel codec.

The codec is *stateful* (interned strings, schema dictionaries, id prefixes
grow in lock-step on both ends of a channel), so the properties here always
run whole encoded streams in FIFO order through one encoder/decoder pair:

* arbitrary JSON-safe documents round-trip exactly, types preserved
  (``1`` stays ``int``, ``1.0`` stays ``float``, ``True`` stays ``bool``),
* varints round-trip across the length-boundary edges (0, 2^7, 2^14,
  2^31 - 1) and arbitrary magnitudes,
* resetting both dictionaries across a channel reconnect keeps the stream
  decodable, while resetting only the decoder makes stale references fail
  loudly,
* torn / truncated blobs always raise :class:`SerializationError` -- a
  partial frame must never silently mis-decode.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spe.codec import (
    BinaryChannelDecoder,
    BinaryChannelEncoder,
    read_svarint,
    read_uvarint,
    write_svarint,
    write_uvarint,
)
from repro.spe.errors import SerializationError
from repro.spe.tuples import StreamTuple

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)  # beyond int64: exercises the varint fallback
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)
documents = st.dictionaries(st.text(max_size=12), json_values, max_size=5)

#: GeneaLog-shaped provenance payloads: a tuple type plus an opaque id.
genealog_payloads = st.builds(
    lambda kind, node, counter: {"type": kind, "id": f"{node}:{counter}"},
    st.sampled_from(["SOURCE", "MAP", "AGGREGATE"]),
    st.sampled_from(["source0", "aggregate_shard1", "n"]),
    st.integers(0, 2**40),
)
payloads = st.one_of(st.just({}), genealog_payloads, documents)

stream_tuples = st.builds(
    lambda ts, values, wall: StreamTuple(ts=ts, values=values, wall=wall),
    st.integers(0, 1000) | st.floats(0, 1e9),
    documents,
    st.floats(0, 1e6),
)

#: a stream is a list of batches; each batch is a (tuples, payloads) pair.
batches = st.lists(
    st.lists(st.tuples(stream_tuples, payloads), min_size=1, max_size=6),
    min_size=1,
    max_size=4,
)

#: a smaller stream for tests that draw two per example: shallower documents
#: and fewer, shorter batches keep one draw well inside Hypothesis's
#: ``too_slow`` health-check budget (the full ``batches`` pair took 0.1-0.3 s).
small_documents = st.dictionaries(
    st.text(max_size=8),
    json_scalars
    | st.lists(json_scalars, max_size=3)
    | st.dictionaries(st.text(max_size=6), json_scalars, max_size=3),
    max_size=3,
)
small_batches = st.lists(
    st.lists(
        st.tuples(
            st.builds(
                lambda ts, values: StreamTuple(ts=ts, values=values),
                st.integers(0, 1000) | st.floats(0, 1e9),
                small_documents,
            ),
            st.one_of(st.just({}), genealog_payloads, small_documents),
        ),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=3,
)


def typed(value):
    """Value annotated with its type, recursively: 1 != 1.0 != True here."""
    if isinstance(value, dict):
        return {key: typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [typed(item) for item in value]
    return (type(value).__name__, value)


def encode_stream(encoder, stream):
    return [
        encoder.encode_batch([t for t, _ in batch], [p for _, p in batch])
        for batch in stream
    ]


# ---------------------------------------------------------------------------
# round-trip
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @given(batches)
    def test_json_safe_documents_round_trip_exactly(self, stream):
        encoder = BinaryChannelEncoder("prop")
        decoder = BinaryChannelDecoder("prop")
        for blob, batch in zip(encode_stream(encoder, stream), stream):
            tuples, provenance = decoder.decode_batch(blob)
            assert len(tuples) == len(batch)
            for decoded, payload, (original, sent_payload) in zip(
                tuples, provenance, batch
            ):
                assert typed(decoded.ts) == typed(original.ts)
                assert decoded.wall == original.wall
                assert typed(decoded.values) == typed(original.values)
                assert typed(payload) == typed(sent_payload)

    @given(st.lists(st.integers(0, 2**40), min_size=1, max_size=8))
    def test_order_keys_survive(self, orders):
        encoder = BinaryChannelEncoder("prop")
        decoder = BinaryChannelDecoder("prop")
        sent = []
        for i, order in enumerate(orders):
            tup = StreamTuple(ts=float(i), values={"x": i})
            tup.order_key = (order, i)
            sent.append(tup)
        tuples, _ = decoder.decode_batch(
            encoder.encode_batch(sent, [{} for _ in sent])
        )
        assert [t.order_key for t in tuples] == [t.order_key for t in sent]


# ---------------------------------------------------------------------------
# varint edges
# ---------------------------------------------------------------------------

VARINT_EDGES = (0, 1, 2**7 - 1, 2**7, 2**14 - 1, 2**14, 2**31 - 1, 2**31, 2**64)


class TestVarints:
    @pytest.mark.parametrize("value", VARINT_EDGES)
    def test_uvarint_length_edges(self, value):
        out = bytearray()
        write_uvarint(out, value)
        decoded, pos = read_uvarint(bytes(out), 0)
        assert decoded == value
        assert pos == len(out)

    @given(st.integers(0, 2**80))
    def test_uvarint_round_trips(self, value):
        out = bytearray()
        write_uvarint(out, value)
        assert read_uvarint(bytes(out), 0) == (value, len(out))

    @given(st.integers(-(2**80), 2**80))
    def test_svarint_round_trips(self, value):
        out = bytearray()
        write_svarint(out, value)
        assert read_svarint(bytes(out), 0) == (value, len(out))

    @pytest.mark.parametrize("value", VARINT_EDGES)
    def test_truncated_uvarint_raises(self, value):
        out = bytearray()
        write_uvarint(out, value)
        for cut in range(len(out)):
            with pytest.raises(IndexError):
                read_uvarint(bytes(out[:cut]), 0)


# ---------------------------------------------------------------------------
# dictionary reset across reconnects
# ---------------------------------------------------------------------------


class TestDictionaryReset:
    @given(small_batches, small_batches)
    @settings(max_examples=40)
    def test_reset_on_both_ends_keeps_the_stream_decodable(self, first, second):
        """A reconnect resets encoder and decoder together: still lossless."""
        encoder = BinaryChannelEncoder("prop")
        decoder = BinaryChannelDecoder("prop")
        for blob in encode_stream(encoder, first):
            decoder.decode_batch(blob)
        encoder.reset()
        decoder.reset()
        for blob, batch in zip(encode_stream(encoder, second), second):
            tuples, _ = decoder.decode_batch(blob)
            assert [typed(t.values) for t in tuples] == [
                typed(original.values) for original, _ in batch
            ]

    def test_stale_references_after_decoder_only_reset_fail_loudly(self):
        """Resetting only one end must raise, never silently mis-decode."""
        encoder = BinaryChannelEncoder("prop")
        decoder = BinaryChannelDecoder("prop")
        batch = [StreamTuple(ts=1.0, values={"plate": "abc", "id": "node:1"})]
        decoder.decode_batch(encoder.encode_batch(batch, [{}]))
        # The second batch references the interned schema from the first.
        second = encoder.encode_batch(
            [StreamTuple(ts=2.0, values={"plate": "def", "id": "node:2"})], [{}]
        )
        decoder.reset()
        with pytest.raises(SerializationError):
            decoder.decode_batch(second)


# ---------------------------------------------------------------------------
# torn frames
# ---------------------------------------------------------------------------


class TestTornFrames:
    @given(st.lists(st.tuples(stream_tuples, payloads), min_size=1, max_size=4))
    @settings(max_examples=25)
    def test_every_strict_prefix_raises(self, batch):
        blob = BinaryChannelEncoder("prop").encode_batch(
            [t for t, _ in batch], [p for _, p in batch]
        )
        for cut in range(len(blob)):
            with pytest.raises(SerializationError):
                BinaryChannelDecoder("prop").decode_batch(blob[:cut])

    @given(st.lists(st.tuples(stream_tuples, payloads), min_size=1, max_size=4))
    @settings(max_examples=25)
    def test_trailing_garbage_raises(self, batch):
        blob = BinaryChannelEncoder("prop").encode_batch(
            [t for t, _ in batch], [p for _, p in batch]
        )
        with pytest.raises(SerializationError):
            BinaryChannelDecoder("prop").decode_batch(blob + b"\x00")

    def test_wrong_magic_raises(self):
        blob = BinaryChannelEncoder("prop").encode_batch(
            [StreamTuple(ts=1.0, values={"x": 1})], [{}]
        )
        with pytest.raises(SerializationError):
            BinaryChannelDecoder("prop").decode_batch(b"\xa5" + blob[1:])
