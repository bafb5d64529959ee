"""Plain-text artifacts: the field dump against its one-row-at-a-time form."""

import json
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from lowmach import ObstacleShape, PotentialField, build_mesh, io_text
from lowmach.io_text import canonical_json, field_dump_string, g17_rows, node_weights


MESHES = {
    "axisym-sphere": (ObstacleShape("sphere"), "axisymmetric-3d"),
    "planar-disk": (ObstacleShape("disk"), "planar-2d"),
}

# signed zeros, subnormals, the extremes of the range, and values whose
# shortest round-trip form needs all 17 digits
SPECIAL = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-300,
                    -1.2345e-7, 1.0 / 3.0, np.pi, -1e16, 1.7976931348623157e308,
                    0.1 + 0.2, -1.0])


@pytest.mark.parametrize("name", sorted(MESHES))
def test_field_dump_matches_per_node_rows(name, tmp_path):
    shape, mode = MESHES[name]
    mesh = build_mesh(shape, 10.0, 9, 7, grading=1.15, mode=mode)
    rng = np.random.default_rng(3)
    values = rng.standard_normal(mesh.n_nodes) * 10.0 ** rng.integers(-30, 30, mesh.n_nodes)
    values[:SPECIAL.size] = SPECIAL
    field = PotentialField(mesh, values, name="probe")

    text = field_dump_string(field, cfg_hash="abc123", extra={"epsilon": "0.1"})
    header, columns, rows = text.split("\n", 2)
    assert header == (f"# lowmach-field v1 kind=probe mode={mesh.mode} "
                      f"n={mesh.n_nodes} config=abc123 epsilon=0.1")
    assert columns == "# columns: x1 xr weight value"
    assert rows == oracles.field_dump_rows(mesh.nodes, node_weights(mesh), values)
    assert rows.split("\n", 1)[0].endswith(" -0")

    # the rows read back bit for bit, -0.0 included
    path = tmp_path / "field.txt"
    path.write_text(text)
    meta, rows = oracles.read_field_dump(path)
    assert meta["n"] == str(mesh.n_nodes)
    assert np.array_equal(rows[:, :2], mesh.nodes)
    vals = rows[:, 3]
    assert np.array_equal(vals, values)
    assert np.array_equal(np.signbit(vals), np.signbit(values))


# the edges of the fast path: ties at the 17th digit (odd/4 above 1e15,
# odd/16 above 4e13, odd/2**18 above 0.1, odd/2**22 and odd/2**23 in
# exponent notation); the bounds 1e-6, 1e-4 (the switch to exponent
# notation; the double below it is 9.9999999999999995e-5) and 1e16, with one
# ulp on either side; the doubles nearest below the other powers of ten (the
# closest any value comes to 17 nines rounding up); signed zeros,
# subnormals, inf and nan
EDGES = [1e15 + 0.25, 1e15 + 0.75, -(1e15 + 1.25), 4e13 + 0.0625, 4e13 + 0.1875,
         26215 / 2 ** 18, 43 / 2 ** 22, 9 / 2 ** 23, -11 / 2 ** 23,
         *(float(np.nextafter(b, to)) for b in (1e-6, 1e-4, 1e16) for to in (0.0, b, np.inf)),
         0.0, -0.0, 5e-324, -2.2250738585072009e-308, math.inf, -math.inf, math.nan,
         *(float(np.nextafter(10.0 ** j, 0.0)) for j in range(-5, 17))]
FLOAT64 = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(0, 2 ** 64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(FLOAT64, max_size=40), ncols=st.integers(1, 5),
       sep=st.sampled_from([" ", ","]))
@example(values=EDGES, ncols=1, sep=" ")
@example(values=EDGES, ncols=4, sep=",")
def test_g17_rows_writes_percent_17g(values, ncols, sep):
    table = np.array(values[:len(values) // ncols * ncols], dtype=np.float64).reshape(-1, ncols)
    want = "".join(sep.join("%.17g" % v for v in row) + "\n" for row in table.tolist())
    # three rows a chunk: most tables end in a part chunk
    with mock.patch.object(io_text, "_CHUNK_ROWS", 3):
        assert "".join(g17_rows(table, sep)) == want


def test_field_dump_memory_is_bounded_by_its_text():
    # a 192^2 dump (37 249 nodes, 18 full chunks and a part one): the traced
    # peak is the rows' text twice (chunks and their join) and the table, not
    # a Python float per value (3.3x the text at the %-format)
    mesh = build_mesh(ObstacleShape("sphere"), 20.0, 192, 192, grading=1.15 ** 0.25,
                      mode="axisymmetric-3d")
    rng = np.random.default_rng(7)
    values = rng.standard_normal(mesh.n_nodes) * 10.0 ** rng.uniform(-6.0, 0.0, mesh.n_nodes)
    field = PotentialField(mesh, values, name="probe")
    tracemalloc.start()
    try:
        text = field_dump_string(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * len(text)
    rows = text.split("\n", 2)[2]
    assert rows == oracles.field_dump_rows(mesh.nodes, node_weights(mesh), values)


@pytest.mark.parametrize("compact", [False, True])
def test_canonical_json_writes_non_finite_as_null(compact):
    # RFC 8259 has no NaN or Infinity; finite values keep json.dumps' text
    obj = {"nan": math.nan, "inf": [math.inf, -math.inf, (np.float64("nan"),)],
           "finite": [0.1 + 0.2, -0.0, np.float64(1e-300), 3, True, None, "x"]}
    text = canonical_json(obj, compact=compact)
    back = json.loads(text, parse_constant=lambda name: pytest.fail(name))
    assert back == {"nan": None, "inf": [None, None, [None]],
                    "finite": [0.1 + 0.2, -0.0, 1e-300, 3, True, None, "x"]}
    finite = {"finite": obj["finite"]}
    layout = {"separators": (",", ":")} if compact else {"indent": 2}
    want = json.dumps(finite, sort_keys=True, **layout) + "\n"
    assert canonical_json(finite, compact) == want
