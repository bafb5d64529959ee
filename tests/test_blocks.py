"""Per-point kernels over blocks of cells agree with one block over the mesh.

The block size is ``fem._BLOCK_POINTS`` quadrature points; here it is set to
a few cells, so that a 24^2 mesh runs as many blocks with a ragged last one,
and compared with a size that holds the whole mesh in one block.
"""

import numpy as np
import pytest

import oracles
from lowmach import (GasModel, ObstacleShape, build_mesh, flow_state, make_cutoff, minimize,
                     solve_incompressible)
from lowmach import fem
from lowmach.compressible import DifferenceProblem
from lowmach.limits import ForceSpec, SweepSetup, prepare

FEW_CELLS = 7 * 9 + 5           # 7 cells at 9 points each: 576 = 82 * 7 + 2
ONE_BLOCK = 10**9
RTOL = 1e-13

CASES = {
    "sphere": (lambda: build_mesh(ObstacleShape("sphere", 1.0), 20.0, 24, 24, grading=1.3225),
               {}, 0.2),
    "forced": (lambda: build_mesh(ObstacleShape("sphere", 1.0), 20.0, 24, 24, grading=1.3225),
               {"mach_threshold": 0.45, "eps_ref": 0.3,
                "force_spec": ForceSpec("newtonian", mass=0.3, source_radius=0.5)}, 0.2),
    "ellipse": (lambda: build_mesh(ObstacleShape("ellipse", semi_axes=(1.5, 1.0)), 20.0, 24, 24),
                {}, 0.2),
    "disk": (lambda: build_mesh(ObstacleShape("disk", 1.0), 20.0, 24, 24, mode="planar-2d"),
             {}, 0.1),
}


def _close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.max(np.abs(got - want)) <= RTOL * max(np.max(np.abs(want)), np.finfo(float).tiny)


@pytest.fixture(scope="module", params=sorted(CASES))
def pair(request):
    """(one-block, many-block) results of one case: its mesh built at each
    block size, and the kernels and flow state evaluated at each on the same
    one-block inputs."""
    make, kwargs, eps = CASES[request.param]
    mp = pytest.MonkeyPatch()
    out = []
    try:
        mp.setattr(fem, "_BLOCK_POINTS", ONE_BLOCK)
        mesh = make()
        psi, force, cut = prepare(SweepSetup(mesh, **kwargs))
        gas = GasModel(1.4, eps, 1.0)
        corr = minimize(psi, force, gas, cut)[0]
        prob = DifferenceProblem(psi, force, gas, cut)
        x = np.random.default_rng(7).standard_normal(mesh.n_nodes)
        x[mesh.sigma_nodes] = 0.0
        for size in (ONE_BLOCK, FEW_CELLS):
            mp.setattr(fem, "_BLOCK_POINTS", size)
            out.append({"mesh": make(), "n_blocks": len(fem.cell_blocks(*mesh.qweights.shape)),
                        "functional": [prob.functional(x), prob.functional(corr.values)],
                        "gradient": prob.gradient(x), "hessian": prob.hessian(corr.values),
                        "state": flow_state(corr, psi, gas, force, cut)})
    finally:
        mp.undo()
    return out


def test_block_counts(pair):
    one, many = pair
    assert one["n_blocks"] == 1
    m = one["mesh"].n_cells
    assert many["n_blocks"] == -(-m // 7) and m % 7 != 0      # ragged last block


def test_mesh_arrays_are_bitwise_equal(pair):
    one, many = (p["mesh"] for p in pair)
    for name in ("nodes", "cells", "qpts", "qweights", "basis", "bgrads"):
        assert np.array_equal(getattr(one, name), getattr(many, name)), name
    for tag in one.facets:
        assert np.array_equal(one.facets[tag].weights, many.facets[tag].weights)


@pytest.mark.parametrize("kernel", ["functional", "gradient", "hessian"])
def test_kernels_match_one_block(pair, kernel):
    one, many = pair
    assert _close(many[kernel], one[kernel])


def test_flow_state_matches_one_block(pair):
    one, many = (p["state"] for p in pair)
    assert many.cutoff_margin == one.cutoff_margin
    assert many.truncated_regime == one.truncated_regime
    for key, value in one.summary().items():
        assert _close(many.summary()[key], value), key


# ----------------------------------------------------------------------
# Memory on a mesh of several blocks (96^2: six blocks of at most 15360
# points), in units of one (M, Q) float array, results included
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def mesh96():
    return build_mesh(ObstacleShape("sphere", 1.0), 20.0, 96, 96)


def test_several_blocks_at_96(mesh96):
    assert len(fem.cell_blocks(*mesh96.qweights.shape)) == 6


def test_build_mesh_temporaries_are_bounded(mesh96):
    # the mesh keeps 11.7 units (qpts, qweights, bgrads); 17.8 measured
    units = oracles.traced_units(
        mesh96, lambda: build_mesh(ObstacleShape("sphere", 1.0), 20.0, 96, 96))
    assert units <= 19.5


def test_minimize_and_flow_state_temporaries_are_bounded(mesh96):
    # neither keeps a per-point field: minimize 6.9 and flow_state 4.3 measured
    psi = solve_incompressible(mesh96, 1.0)
    gas = GasModel(1.4, 0.1, 1.0)
    cut = make_cutoff(gas, 0.65, 0.45)
    box = {}
    units = oracles.traced_units(
        mesh96, lambda: box.setdefault("corr", minimize(psi, None, gas, cut)[0]))
    assert units <= 7.5
    units = oracles.traced_units(
        mesh96, lambda: flow_state(box["corr"], psi, gas, None, cut))
    assert units <= 5.5
