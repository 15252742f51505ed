
import numpy as np
import pytest

from mixedflow.mesh_fem import (QUAD_WEIGHTS, ScalarP1Space, VectorP1Space,
                                build_mesh, norm)


class TestMesh:
    @pytest.mark.parametrize("n,nodes,tris,bnodes", [
        (1, 4, 2, 4), (2, 9, 8, 8), (4, 25, 32, 16),
    ])
    def test_counts(self, n, nodes, tris, bnodes):
        mesh = build_mesh(n)
        assert mesh.n_nodes == nodes
        assert len(mesh.triangles) == tris
        assert len(mesh.boundary_nodes) == bnodes

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_mesh(0)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_areas_uniform_and_tile(self, n):
        mesh = build_mesh(n)
        np.testing.assert_allclose(mesh.areas, 0.5 / n ** 2, rtol=1e-14)
        assert abs(mesh.areas.sum() - 1.0) <= 1e-14

    @pytest.mark.parametrize("n", range(1, 7))
    def test_triangles_match_cell_loop(self, n):
        """The triangle list equals the cell-by-cell loop it replaced."""
        ref = []
        for j in range(n):
            for i in range(n):
                ll = i + j * (n + 1)
                ul = ll + (n + 1)
                ref += [(ll, ll + 1, ul + 1), (ll, ul + 1, ul)]
        tris = build_mesh(n).triangles
        assert tris.dtype == np.int64
        np.testing.assert_array_equal(tris, np.array(ref, dtype=np.int64))

    def test_deterministic_ordering(self):
        a, b = build_mesh(3), build_mesh(3)
        np.testing.assert_array_equal(a.triangles, b.triangles)
        np.testing.assert_array_equal(a.nodes, b.nodes)

    def test_partition_of_unity(self, rng):
        # every nodal basis evaluated through quadrature interpolation of 1
        mesh = build_mesh(5)
        space = ScalarP1Space(mesh)
        ones = np.ones(space.n_dofs)
        vals = space.eval_at_quadrature(ones)
        assert np.abs(vals - 1.0).max() <= 1e-13


class TestQuadrature:
    def test_weights_positive_normalized(self):
        assert np.all(QUAD_WEIGHTS > 0)
        assert QUAD_WEIGHTS.sum() == pytest.approx(1.0, abs=1e-15)

    def test_polynomial_exactness(self):
        # degree <= 4 monomials over [0,1]^2 against closed forms
        space = ScalarP1Space(build_mesh(3))
        qpts = space.quadrature_coords()
        for px in range(5):
            for py in range(5 - px):
                approx = space.integrate(qpts[..., 0] ** px * qpts[..., 1] ** py)
                exact = 1.0 / ((px + 1) * (py + 1))
                assert abs(approx - exact) <= 1e-13


class TestNorms:
    def test_unit_constant_vector_field(self):
        space = VectorP1Space(build_mesh(2))
        d = np.full(space.mesh.nodes.shape, 1 / np.sqrt(2)).ravel()
        assert norm(space, d, 3.0) == pytest.approx(1.0, abs=1e-13)

    def test_zero_against_zero(self):
        space = ScalarP1Space(build_mesh(2))
        assert norm(space, np.zeros(space.n_dofs), 2.0,
                    against=lambda x: 0.0 * x[..., 0]) == 0.0

    def test_linear_exact_value(self):
        space = ScalarP1Space(build_mesh(4))
        d = space.mesh.nodes[:, 0]
        assert abs(norm(space, d, 2.0) - 1 / np.sqrt(3)) <= 1e-12

    def test_rejects_nonpositive_exponent(self):
        space = ScalarP1Space(build_mesh(2))
        with pytest.raises(ValueError):
            norm(space, np.zeros(space.n_dofs), 0.0)
