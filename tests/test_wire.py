"""Round-trip and malformed-input checks for the wire frame format."""

import io
import itertools
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grainflow.mesh import NULL_ID, PNODE, LNODE, SNODE, BND_TANGENT_X
from grainflow.wire import (
    AREAS, FLIPS, MESH, MIGRATION, PAIRS, SNAPSHOT, SUPPORT, TRIPLETS,
    MODE_ARMS, MODE_CHAIN, WIRE_VERSION, WireError,
    decode_arrays, encode_arrays,
)

LAYOUTS = [PAIRS, TRIPLETS, FLIPS, SUPPORT, MIGRATION, AREAS, MESH, SNAPSHOT]

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
        want = want.reshape(-1) if cols is None else want.reshape(-1, cols)
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
    (flips,) = roundtrip([[42, NULL_ID]], FLIPS)
    assert flips.tolist() == [42, NULL_ID]


def test_temp_reply_roundtrip():
    heads, ids, xy = roundtrip(SUPPORT_ARRAYS, SUPPORT)
    assert heads[:, 3].sum() == len(ids) == len(xy) == 3
    buf = encode_arrays(SUPPORT_ARRAYS, SUPPORT)
    # the frame header: wire version and array count, both u32
    assert struct.unpack_from("<II", buf) == (WIRE_VERSION, 3) == (4, 3)


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


def test_wrong_dtype_rejected():
    # pairs with float identities, and flips sent as int32
    floats = ((np.dtype("<f8"), 2),)
    with pytest.raises(WireError, match="layout wants"):
        decode_arrays(encode_arrays([[(1, 2)]], floats), PAIRS)
    narrow = ((np.dtype("<i4"), None),)
    with pytest.raises(WireError, match="layout wants"):
        decode_arrays(encode_arrays([[1, 2]], narrow), FLIPS)


def test_short_fixed_payload_rejected():
    # the right array count and dtype, the wrong column count
    for sent, arrays, read in ((PAIRS, [[(1, 2)]], TRIPLETS),
                               (TRIPLETS, [[(1, 2, 3)]], PAIRS),
                               (FLIPS, [[1]], PAIRS),
                               (PAIRS, [[(1, 2)]], FLIPS)):
        with pytest.raises(WireError, match="columns"):
            decode_arrays(encode_arrays(arrays, sent), read)


def test_wrong_array_count_rejected():
    buf = encode_arrays(SNAPSHOT_ARRAYS[:3], AREAS)
    with pytest.raises(WireError, match="frame holds 3 arrays"):
        decode_arrays(buf, SNAPSHOT)
    with pytest.raises(WireError, match="frame holds 3 arrays"):
        decode_arrays(buf, FLIPS)


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
    with pytest.raises(WireError, match="malformed header"):
        decode_arrays(buf[:40], PAIRS)


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
            decode_arrays(head + payload, FLIPS)


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
