"""Plain-text artifacts: the field dump against its one-row-at-a-time form."""

import json
import math

import numpy as np
import pytest

import oracles
from lowmach import ObstacleShape, PotentialField, build_mesh
from lowmach.io_text import canonical_json, field_dump_string, node_weights


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
