"""Round-trip and malformed-input checks for the wire frame format."""

import io
import itertools
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grainflow import transport
from grainflow.mesh import NULL_ID, PNODE, LNODE, SNODE, BND_TANGENT_X
from grainflow.runner import RunConfig, run
from grainflow.wire import (
    AREAS, IDS, MESH, MIGRATION, SNAPSHOT, SPEEDS, SUPPORT, TRIPLETS,
    MODE_ARMS, MODE_CHAIN, WIRE_VERSION, WireError,
    decode_arrays, encode_arrays,
)

LAYOUTS = [TRIPLETS, IDS, SPEEDS, SUPPORT, MIGRATION, AREAS, MESH, SNAPSHOT]

# a plain two-column layout, no collective's, for the codec checks
PAIRS = ((np.dtype("<i8"), 2),)

# values with no short decimal form, so any change of bit pattern shows
X = math.pi
Y = float.fromhex("0x1.fffffffffffffp-3")

SUPPORT_ARRAYS = [[(MODE_CHAIN, 3, 17, 2), (MODE_CHAIN, 4, 21, 0),
                   (MODE_ARMS, NULL_ID, 99, 1)],
                  [18, 19, 98],
                  [(0.5, 0.25), (X, Y), (1.0, 2.0)]]

# element 40 with corners 5, 6, 7; element 41 reuses 5 and 7
MIGRATION_ARRAYS = [[(40, 12, 5, 6, 7), (41, 12, 5, 7, 8)],
                    [(5, SNODE, 12, -1, NULL_ID, NULL_ID),
                     (6, LNODE, 4, -1, 9, NULL_ID),
                     (7, PNODE, 3, BND_TANGENT_X, NULL_ID, NULL_ID),
                     (8, SNODE, 12, -1, NULL_ID, NULL_ID)],
                    [(0.25, 0.5), (1.0 / 3.0, 0.1), (0.0, 0.0), (X, Y)],
                    [(7, 4, 6), (7, 8, NULL_ID)]]

SNAPSHOT_ARRAYS = [[3, 8], [0.5, X], [2],
                   [0, 1, 2, 5], np.random.default_rng(0).random((4, 2)),
                   [4, 9], [(0, 1, 2), (1, 5, 2)], [3, 8]]


def roundtrip(arrays, layout):
    buf = encode_arrays(arrays, layout)
    out = decode_arrays(buf, layout)
    assert len(out) == len(layout)
    for a, b, (dtype, cols) in zip(arrays, out, layout):
        want = np.asarray(a, dtype=dtype)
        want = want.reshape(-1, cols) if cols else want.reshape(-1)
        assert b.dtype == dtype and b.shape == want.shape
        assert b.tobytes() == want.tobytes()
    assert encode_arrays(out, layout) == buf
    return out


def test_empty_stream():
    for layout in LAYOUTS:
        out = roundtrip([[]] * len(layout), layout)
        assert all(len(a) == 0 for a in out)


def test_pair_triplet_flip_roundtrip():
    (pairs,) = roundtrip([[(7, 105), (NULL_ID, 0)]], PAIRS)
    assert pairs.tolist() == [[7, 105], [NULL_ID, 0]]
    (trips,) = roundtrip([[(4, 9, 2), (11, 11, 0)]], TRIPLETS)
    assert trips.tolist() == [[4, 9, 2], [11, 11, 0]]
    (flips,) = roundtrip([[42, NULL_ID]], IDS)
    assert flips.tolist() == [42, NULL_ID]
    (speeds,) = roundtrip([[X]], SPEEDS)
    assert speeds.tolist() == [X]


def test_temp_reply_roundtrip():
    heads, ids, xy = roundtrip(SUPPORT_ARRAYS, SUPPORT)
    assert heads[:, 3].sum() == len(ids) == len(xy) == 3
    buf = encode_arrays(SUPPORT_ARRAYS, SUPPORT)
    # the frame header: wire version and array count, both u32; then per
    # array its dtype string, column count and row count
    assert struct.unpack_from("<II", buf) == (WIRE_VERSION, 3) == (5, 3)
    assert [struct.unpack_from("<3sBq", buf, 8 + 12 * i) for i in range(3)] \
        == [(b"<i8", 4, 3), (b"<i8", 0, 3), (b"<f8", 2, 3)]
    assert len(buf) == 8 + 3 * 12 + 8 * (3 * 4 + 3 + 3 * 2)


def test_temp_reply_float_bits_survive():
    arrays = [[(MODE_CHAIN, 6, 2, 2)], [10, 11], [(X, Y), (5e-324, -0.0)]]
    _, _, xy = roundtrip(arrays, SUPPORT)
    assert struct.pack("<d", xy[0, 0]) == struct.pack("<d", X)
    assert struct.pack("<d", xy[0, 1]) == struct.pack("<d", Y)
    assert struct.pack("<d", xy[1, 0]) == struct.pack("<d", 5e-324)
    assert math.copysign(1.0, xy[1, 1]) == -1.0


def test_element_packet_roundtrip():
    elems, nodes, xy, conns = roundtrip(MIGRATION_ARRAYS, MIGRATION)
    assert elems[:, 2:].tolist() == [[5, 6, 7], [5, 7, 8]]
    assert nodes[:, 0].tolist() == [5, 6, 7, 8]  # each node once
    assert nodes[1].tolist() == [6, LNODE, 4, -1, 9, NULL_ID]
    assert conns.tolist() == [[7, 4, 6], [7, 8, NULL_ID]]


def test_mixed_stream_preserves_order():
    # a frame of arrays of different dtypes and shapes keeps their order
    out = roundtrip(SNAPSHOT_ARRAYS, SNAPSHOT)
    assert [a.dtype.kind for a in out] == ["i", "f", "i", "i", "f", "i",
                                           "i", "i"]
    assert out[6].tolist() == [[0, 1, 2], [1, 5, 2]]


def test_arrays_roundtrip_exactly():
    roundtrip(SNAPSHOT_ARRAYS[:3], AREAS)
    roundtrip(SNAPSHOT_ARRAYS[3:], MESH)
    specials = [0.1, -0.0, math.pi, 1e-300, math.inf]
    _, areas, _ = roundtrip([[1, 2, 3, 4, 5], specials, [7]], AREAS)
    assert areas.tobytes() == np.array(specials).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_layout_roundtrips_any_row_count(data):
    for layout in LAYOUTS:
        arrays = []
        for dtype, cols in layout:
            rows = data.draw(st.integers(0, 6))
            shape = (rows, cols) if cols else (rows,)
            if dtype.kind == "f":
                values = st.floats(width=64)
            else:
                values = st.integers(-2**63, 2**63 - 1)
            flat = data.draw(st.lists(values, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))
            arrays.append(np.array(flat, dtype=dtype).reshape(shape))
        roundtrip(arrays, layout)


def test_forged_row_count_rejected():
    # a descriptor claiming 2**62 rows must not make the decoder allocate
    for layout in (IDS, PAIRS, SUPPORT):
        buf = bytearray(encode_arrays([[]] * len(layout), layout))
        struct.pack_into("<q", buf, 8 + 4, 2**62)
        with pytest.raises(WireError, match="truncated data"):
            decode_arrays(bytes(buf), layout)


def test_every_collective_payload_is_a_frame(tmp_path, monkeypatch):
    # a 2-worker run with snapshots: every payload any collective carries
    # decodes under one of the layouts
    sent = []

    def recording(name):
        orig = getattr(transport.InProcessTransport, name)

        def wrapper(self, payload):
            many = payload if name == "all_to_all" else [payload]
            sent.extend((name, buf) for buf in many)
            return orig(self, payload)
        return wrapper

    for name in ("all_gather", "all_to_all"):
        monkeypatch.setattr(transport.InProcessTransport, name,
                            recording(name))
    run(RunConfig(domain=0.2, grains=8, increments=3, seed=3, n_parts=2,
                  output_every=1, out=str(tmp_path)))
    assert {name for name, _ in sent} == {"all_gather", "all_to_all"}

    def decodes(buf, layout):
        try:
            decode_arrays(buf, layout)
        except WireError:
            return False
        return True

    for name, buf in sent:
        assert any(decodes(buf, layout) for layout in LAYOUTS), (name, buf[:32])


def test_wrong_dtype_rejected():
    # pairs with float identities, ids sent as int32, a speed as an id
    floats = ((np.dtype("<f8"), 2),)
    with pytest.raises(WireError, match="layout wants"):
        decode_arrays(encode_arrays([[(1, 2)]], floats), PAIRS)
    narrow = ((np.dtype("<i4"), 0),)
    with pytest.raises(WireError, match="layout wants"):
        decode_arrays(encode_arrays([[1, 2]], narrow), IDS)
    with pytest.raises(WireError, match="layout wants"):
        decode_arrays(encode_arrays([[0.5]], SPEEDS), IDS)


def test_short_fixed_payload_rejected():
    # the right array count and dtype, the wrong column count
    for sent, arrays, read in ((PAIRS, [[(1, 2)]], TRIPLETS),
                               (TRIPLETS, [[(1, 2, 3)]], PAIRS),
                               (IDS, [[1]], PAIRS),
                               (PAIRS, [[(1, 2)]], IDS)):
        with pytest.raises(WireError, match="columns"):
            decode_arrays(encode_arrays(arrays, sent), read)


def test_wrong_array_count_rejected():
    buf = encode_arrays(SNAPSHOT_ARRAYS[:3], AREAS)
    with pytest.raises(WireError, match="frame holds 3 arrays"):
        decode_arrays(buf, SNAPSHOT)
    with pytest.raises(WireError, match="frame holds 3 arrays"):
        decode_arrays(buf, IDS)


def test_unknown_record_type_rejected():
    # a frame read against any layout but its own is refused
    for sent, read in itertools.permutations(LAYOUTS, 2):
        with pytest.raises(WireError):
            decode_arrays(encode_arrays([[]] * len(sent), sent), read)


def test_bad_version_rejected():
    buf = bytearray(encode_arrays([[(1, 2)]], PAIRS))
    struct.pack_into("<I", buf, 0, WIRE_VERSION - 1)
    with pytest.raises(WireError, match="version"):
        decode_arrays(bytes(buf), PAIRS)


def test_truncated_header_rejected():
    buf = encode_arrays([[(1, 2)]], PAIRS)
    with pytest.raises(WireError, match="truncated frame header"):
        decode_arrays(buf[:7], PAIRS)
    # the frame header is whole, the array descriptor after it is not
    with pytest.raises(WireError, match="truncated array descriptors"):
        decode_arrays(buf[:12], PAIRS)


def test_truncated_payload_rejected():
    buf = encode_arrays([[(1, 2)]], PAIRS)
    with pytest.raises(WireError, match="truncated data"):
        decode_arrays(buf[:-1], PAIRS)


def test_arrays_truncated_rejected():
    for arrays, layout in ((SUPPORT_ARRAYS, SUPPORT),
                           (MIGRATION_ARRAYS, MIGRATION)):
        buf = encode_arrays(arrays, layout)
        for cut in range(len(buf)):
            with pytest.raises(WireError):
                decode_arrays(buf[:cut], layout)


def test_trailing_bytes_in_element_rejected():
    buf = encode_arrays(MIGRATION_ARRAYS, MIGRATION)
    with pytest.raises(WireError, match="trailing"):
        decode_arrays(buf + b"\0", MIGRATION)


def test_arrays_pickled_rejected():
    head = struct.pack("<II", WIRE_VERSION, 1)
    obj = io.BytesIO()
    np.save(obj, np.array([{"x": 1}], dtype=object), allow_pickle=True)
    for payload in (obj.getvalue(), pickle.dumps([1, 2, 3])):
        with pytest.raises(WireError):
            decode_arrays(head + payload, IDS)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_array_frame_decodes_or_raises_wire_error(data):
    buf = bytearray(encode_arrays(SNAPSHOT_ARRAYS[:3], AREAS))
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(buf) - 1))
        buf[i] = data.draw(st.integers(0, 255))
    try:
        decode_arrays(bytes(buf), AREAS)
    except WireError:
        pass
