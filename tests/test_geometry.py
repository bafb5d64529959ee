"""Mesh construction: volumes, normals, tags, symmetry, dump round-trip."""

import numpy as np
import pytest

import oracles
from lowmach import ObstacleShape, build_mesh
from lowmach.errors import ConfigError
from lowmach.geometry import mesh_dump_string, refined


SPHERE = ObstacleShape("sphere", radius=1.0)
DISK = ObstacleShape("disk", radius=1.0)


@pytest.fixture(scope="module")
def sphere_mesh():
    return build_mesh(SPHERE, 10.0, 8, 8, grading=1.15, mode="axisymmetric-3d")


@pytest.fixture(scope="module")
def disk_mesh():
    return build_mesh(DISK, 10.0, 8, 8, grading=1.15, mode="planar-2d")


def test_sphere_shell_volume(sphere_mesh):
    exact = 4.0 * np.pi / 3.0 * (10.0**3 - 1.0)
    assert sphere_mesh.volume == pytest.approx(exact, rel=1e-12)


def test_disk_shell_area(disk_mesh):
    exact = np.pi * (100.0 - 1.0)
    assert disk_mesh.volume == pytest.approx(exact, rel=1e-12)


def test_volume_stable_under_refinement(sphere_mesh):
    fine = build_mesh(SPHERE, 10.0, 16, 16, grading=np.sqrt(1.15),
                      mode="axisymmetric-3d")
    assert abs(fine.volume - sphere_mesh.volume) < 1e-10 * sphere_mesh.volume


def test_cell_volumes_positive(sphere_mesh, disk_mesh):
    for mesh in (sphere_mesh, disk_mesh):
        assert np.all(mesh.qweights.sum(axis=1) > 0.0)


def test_boundary_tags_unique(sphere_mesh):
    tags = set(sphere_mesh.facets)
    assert tags == {"gamma", "sigma"}
    n_gamma = sphere_mesh.facets["gamma"].cells.size
    n_sigma = sphere_mesh.facets["sigma"].cells.size
    assert n_gamma == n_sigma == sphere_mesh.n_t


def test_obstacle_facet_area(sphere_mesh, disk_mesh):
    def area(mesh, tag):
        return mesh.facets[tag].weights.sum()

    assert area(sphere_mesh, "gamma") == pytest.approx(4.0 * np.pi, rel=1e-12)
    assert area(sphere_mesh, "sigma") == pytest.approx(400.0 * np.pi, rel=1e-12)
    assert area(disk_mesh, "gamma") == pytest.approx(2.0 * np.pi, rel=1e-12)


def test_sphere_normals_radial(sphere_mesh):
    for tag, sign in (("gamma", -1.0), ("sigma", +1.0)):
        fs = sphere_mesh.facets[tag]
        pts, nrm = fs.qpts.reshape(-1, 2), fs.normals.reshape(-1, 2)
        rhat = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        assert np.allclose(nrm, sign * rhat, atol=1e-12)
        assert np.allclose(np.linalg.norm(nrm, axis=1), 1.0, atol=1e-12)


def test_node_normals_at_axis(sphere_mesh):
    # level-set normal at the node (a, 0, 0): +/- (1, 0)
    n = oracles.level_set_normal(SPHERE, np.array([1.0, 0.0]))
    assert np.allclose(n, [1.0, 0.0], atol=1e-15)


def test_ellipse_normals_match_level_set():
    shape = ObstacleShape("ellipse", semi_axes=(2.0, 1.0))
    mesh = build_mesh(shape, 12.0, 6, 12, mode="planar-2d")
    fs = mesh.facets["gamma"]
    pts, nrm = fs.qpts.reshape(-1, 2), fs.normals.reshape(-1, 2)
    expect = oracles.level_set_normal(shape, pts)
    # facet normals follow the exact boundary parametrization
    assert np.allclose(nrm, -expect, atol=1e-12)
    # the tip point (2, 0) direction
    tip = oracles.level_set_normal(shape, np.array([2.0, 0.0]))
    assert np.allclose(tip, [1.0, 0.0], atol=1e-15)


def test_divergence_theorem(sphere_mesh, disk_mesh):
    for mesh, ndim in ((sphere_mesh, 3), (disk_mesh, 2)):
        total = 0.0
        for fs in mesh.facets.values():
            total += np.sum(fs.weights * np.einsum("fqd,fqd->fq", fs.qpts, fs.normals))
        assert total == pytest.approx(ndim * mesh.volume, rel=1e-6)


def test_reflection_symmetry(sphere_mesh):
    # node set maps onto itself exactly under x1 -> -x1
    flipped = sphere_mesh.nodes.copy()
    flipped[:, 0] *= -1.0
    a = {(round(x, 12), round(y, 12)) for x, y in sphere_mesh.nodes}
    b = {(round(x, 12), round(y, 12)) for x, y in flipped}
    assert a == b


def test_planar_reflection_symmetry(disk_mesh):
    flipped = disk_mesh.nodes.copy()
    flipped[:, 0] *= -1.0
    a = {(round(x, 12), round(y, 12)) for x, y in disk_mesh.nodes}
    b = {(round(x, 12), round(y, 12)) for x, y in flipped}
    assert a == b


def test_ellipse_volume_converges():
    shape = ObstacleShape("ellipse", semi_axes=(2.0, 1.0))
    exact = 4.0 * np.pi / 3.0 * 12.0**3 - 4.0 * np.pi / 3.0 * 2.0 * 1.0**2
    errs = []
    for n in (8, 16, 32):
        mesh = build_mesh(shape, 12.0, 6, n, mode="axisymmetric-3d")
        errs.append(abs(mesh.volume - exact) / exact)
    assert errs[-1] < 1e-6
    assert errs[2] < errs[0]


def test_evaluate_roundtrip(sphere_mesh):
    # x1 = r mu is bilinear in the cell parameters, so it is reproduced exactly
    nodal = sphere_mesh.nodes[:, 0].copy()
    rng = np.random.default_rng(3)
    r = rng.uniform(1.1, 9.5, 40)
    th = rng.uniform(0.05, np.pi - 0.05, 40)
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    vals = oracles.evaluate(sphere_mesh, nodal, pts)
    assert np.allclose(vals, pts[:, 0], rtol=1e-12, atol=1e-12)
    grads = sphere_mesh.evaluate_gradient(nodal, pts)
    assert np.allclose(grads, np.tile([1.0, 0.0], (40, 1)), atol=1e-10)


def test_evaluate_gradient_on_axis(sphere_mesh):
    nodal = sphere_mesh.nodes[:, 0].copy()
    g = sphere_mesh.evaluate_gradient(nodal, np.array([[2.0, 0.0], [-3.0, 0.0]]))
    assert np.allclose(g, [[1.0, 0.0], [1.0, 0.0]], atol=1e-10)


def test_quadrature_weights_positive(sphere_mesh):
    assert np.all(sphere_mesh.qweights > 0.0)
    # the axisymmetric factor 2 pi xr is positive at every quadrature point
    assert np.all(sphere_mesh.qpts[..., 1] > 0.0)


def test_axisym_weight_value(sphere_mesh):
    # the weights carry the factor 2 pi xr: in (r, mu = cos theta) the
    # volume element is 2 pi r^2 dr dmu, so the integral of 1/r over the
    # shell, 2 pi (r_far^2 - 1), has a polynomial integrand and is exact
    r = np.linalg.norm(sphere_mesh.qpts, axis=-1)
    got = np.sum(sphere_mesh.qweights / r)
    assert got == pytest.approx(2.0 * np.pi * (10.0**2 - 1.0), rel=1e-12)


def test_mesh_dump_roundtrip(tmp_path, sphere_mesh):
    path = tmp_path / "mesh.txt"
    path.write_text(mesh_dump_string(sphere_mesh, config_hash="abc123"))
    kv, nodes, cells = oracles.read_mesh_dump(path)
    # the tables are those of the mesh built from the header's parameters
    mesh2 = build_mesh(ObstacleShape(kv["kind"], float(kv["radius"])), float(kv["r_far"]),
                       int(kv["n_r"]), int(kv["n_t"]), grading=float(kv["grading"]),
                       mode=kv["mode"], quad_order=int(kv["quad_order"]))
    assert np.array_equal(nodes, mesh2.nodes)
    assert np.array_equal(cells, mesh2.cells)
    # dump -> read -> build -> dump is byte identical
    assert mesh_dump_string(mesh2, config_hash="abc123") == path.read_text()


@pytest.mark.parametrize("shape, mode, head", [
    (SPHERE, "axisymmetric-3d", "kind=sphere radius=1.0 "),
    (DISK, "planar-2d", "kind=disk radius=1.0 "),
    (ObstacleShape("ellipse", semi_axes=(1.5, 1.0)), "axisymmetric-3d",
     "kind=ellipse semi_axes=1.5,1.0 "),
], ids=["sphere", "disk", "ellipse"])
def test_mesh_dump_node_table_is_the_per_node_format(shape, mode, head):
    # the node and cell tables go through io_text.g17_rows, the index
    # columns too; the text is that of one f-string per row, byte for byte
    # (x1 holds zeros and values near 1e-16 at the right angle, which take
    # the formatter's fallback)
    mesh = build_mesh(shape, 10.0, 12, 10, grading=1.2, mode=mode)
    text = mesh_dump_string(mesh, config_hash="abc123")
    lines = text.splitlines(keepends=True)
    assert f"lowmach-mesh v1 mode={mode} {head}" in lines[0]
    assert lines[1] == f"NODES {mesh.n_nodes}\n"
    want = [f"{k} {x:.17g} {y:.17g}\n" for k, (x, y) in enumerate(mesh.nodes)]
    assert lines[2:2 + mesh.n_nodes] == want
    assert lines[2 + mesh.n_nodes] == f"CELLS {mesh.n_cells}\n"
    # the cell table, from integer-valued floats
    cells = lines[3 + mesh.n_nodes:3 + mesh.n_nodes + mesh.n_cells]
    assert cells == [f"{k} {quad[0]} {quad[1]} {quad[2]} {quad[3]}\n"
                     for k, quad in enumerate(mesh.cells)]
    assert lines[3 + mesh.n_nodes + mesh.n_cells].startswith("FACETS ")


def test_build_mesh_validation():
    with pytest.raises(ConfigError):
        build_mesh(SPHERE, 3.0, 8, 8)              # r_far too small
    with pytest.raises(ConfigError):
        build_mesh(SPHERE, 10.0, 2, 8)             # n_r too small
    with pytest.raises(ConfigError):
        build_mesh(SPHERE, 10.0, 8, 8, grading=0.5)
    with pytest.raises(ConfigError):
        build_mesh(SPHERE, 10.0, 8, 8, mode="planar-2d")  # sphere needs axisym
    with pytest.raises(ConfigError):
        ObstacleShape("sphere", radius=-1.0)
    with pytest.raises(ConfigError):
        ObstacleShape("cube")


def test_refined_preserves_distribution(sphere_mesh):
    fine = refined(sphere_mesh)
    assert fine.n_r == 2 * sphere_mesh.n_r
    assert fine.n_t == 2 * sphere_mesh.n_t
    # every coarse radial station survives in the fine mesh
    coarse_r = np.sort(np.unique(np.round(
        np.linalg.norm(sphere_mesh.nodes, axis=1), 9)))
    fine_r = np.sort(np.unique(np.round(
        np.linalg.norm(fine.nodes, axis=1), 9)))
    assert set(coarse_r).issubset(set(fine_r))


@pytest.mark.parametrize("circle, mode", [(SPHERE, "axisymmetric-3d"), (DISK, "planar-2d")],
                         ids=["sphere", "disk"])
def test_equal_axes_ellipse_is_the_circle(circle, mode):
    # equal semi-axes take the circle's exact boundary: the same mesh, bit for bit
    got = build_mesh(ObstacleShape("ellipse", semi_axes=(1.0, 1.0)), 10.0, 8, 8, mode=mode)
    want = build_mesh(circle, 10.0, 8, 8, mode=mode)
    for name in ("nodes", "qpts", "qweights", "bgrads"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    for tag in ("gamma", "sigma"):
        for name in ("nodes", "qpts", "weights", "normals", "basis", "bgrads"):
            assert (getattr(got.facets[tag], name).tobytes()
                    == getattr(want.facets[tag], name).tobytes())


def test_circle_semi_axes_are_its_radius():
    assert ObstacleShape("disk", 0.8).semi_axes == (0.8, 0.8)
    with pytest.raises(ConfigError):
        ObstacleShape("sphere", semi_axes=(3.0, 1.0))


@pytest.mark.parametrize("shape, mode, n_r, n_t", [
    (SPHERE, "axisymmetric-3d", 8, 8),
    (SPHERE, "axisymmetric-3d", 5, 7),
    (DISK, "planar-2d", 8, 8),
    (DISK, "planar-2d", 5, 7),
    (ObstacleShape("ellipse", semi_axes=(1.0, 0.6)), "planar-2d", 4, 9),
])
def test_index_tables_match_loop_form(shape, mode, n_r, n_t):
    mesh = build_mesh(shape, 10.0, n_r, n_t, mode=mode)
    cells, gamma, sigma = oracles.structured_tables(n_r, n_t, mode == "planar-2d")
    for got, want in ((mesh.cells, cells), (mesh.gamma_nodes, gamma),
                      (mesh.sigma_nodes, sigma)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # the planar angle wraps: the last cell of a ring closes on node j = 0
    if mode == "planar-2d":
        assert mesh.cells[n_t - 1, 2] == n_t and mesh.cells[n_t - 1, 3] == 0
    for tag, ring in (("gamma", 0), ("sigma", n_r - 1)):
        assert np.array_equal(mesh.facets[tag].cells, ring * n_t + np.arange(n_t))
