"""Finite-element kernels: batched-matmul forms against the einsum oracles."""

import numpy as np
import pytest

import oracles
from lowmach import ObstacleShape, build_mesh
from lowmach.fem import assemble_matrix, assemble_vector_load, grad_at_qpts

RTOL = 1e-13


@pytest.fixture(scope="module", params=["axisymmetric-3d", "planar-2d"])
def mesh(request):
    # planar meshes wrap periodically in theta (the last cell column shares
    # its nodes with the first); axisymmetric meshes do not
    kind = "sphere" if request.param == "axisymmetric-3d" else "disk"
    return build_mesh(ObstacleShape(kind, 1.0), 12.0, 10, 14, grading=1.2,
                      mode=request.param)


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _coefficients(mesh):
    rng = np.random.default_rng(7)
    iso = rng.uniform(0.5, 2.0, mesh.qweights.shape)
    a = rng.standard_normal(mesh.qweights.shape + (2, 2))
    sym = a + np.swapaxes(a, -1, -2)
    return {"isotropic": iso, "matrix": sym}


def test_basis_gradients_are_cell_major(mesh):
    m, q = mesh.qweights.shape
    assert mesh.bgrads.shape == (m, 4, q, 2)
    assert mesh.bgrads.flags.c_contiguous


def test_grad_at_qpts_matches_oracle(mesh):
    nodal = np.random.default_rng(1).standard_normal(mesh.n_nodes)
    got = grad_at_qpts(mesh, nodal)
    assert got.shape == mesh.qpts.shape
    assert _rel_err(got, oracles.grad_at_qpts(mesh, nodal)) <= RTOL


def test_assemble_vector_load_matches_oracle(mesh):
    vec = np.random.default_rng(2).standard_normal(mesh.qpts.shape)
    got = assemble_vector_load(mesh, vec)
    assert _rel_err(got, oracles.assemble_vector_load(mesh, vec)) <= RTOL


@pytest.mark.parametrize("kind", ["isotropic", "matrix"])
def test_assemble_matrix_matches_oracle_and_is_symmetric(mesh, kind):
    coeff = _coefficients(mesh)[kind]
    got = assemble_matrix(mesh, coeff)
    want = oracles.assemble_matrix(mesh, coeff)
    scale = np.max(np.abs(want.data))
    assert got.shape == want.shape == (mesh.n_nodes, mesh.n_nodes)
    assert abs(got - want).max() <= RTOL * scale
    assert abs(got - got.T).max() <= RTOL * scale
