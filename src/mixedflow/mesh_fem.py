"""Structured triangulation of the unit square and equal-order P1 spaces.

This is the dense P1 layer: the mesh, the spaces, the quadrature kernels
and the norms.  It holds no sparse matrix; the assembler builds each one.

The unit square is divided into an n x n grid of squares, each cut along
the lower-left to upper-right diagonal into two positively oriented
triangles.  Scalar fields use continuous piecewise-linear (P1) nodal
elements; vector fields use two interleaved P1 components sharing the
scalar node ordering (dof 2*i and 2*i+1 belong to node i).

Every pairing uses one element quadrature, Dunavant's degree-4, 6-point
rule, which integrates every polynomial term of the discrete forms exactly
and approximates the non-polynomial generalized-polynomial flux terms well
enough for the bundled refinement studies.  This module is the only one
that knows the rule: callers sample their integrands at
``quadrature_coords()`` and pair them with the basis through a space's
``load_vector``, ``integrate`` and ``element_matrices``.

Values at the quadrature points are stored component-major: a scalar
field as an (nt, nq) array, a field of k components as a (k, nt, nq)
array, so that the component and triangle axes flatten into the rows of
one 2-D matmul with the (nq, 3) or (nq, 9) weighted basis table.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "QUAD_POINTS",
    "QUAD_WEIGHTS",
    "StructuredTriMesh",
    "ScalarP1Space",
    "VectorP1Space",
    "build_mesh",
    "norm",
]

_BOUNDARY_TOL = 1e-12

# Dunavant's degree-4 rule on the reference triangle, all weights positive.
# A point's barycentric coordinates are the values of the three local P1
# basis functions there, and the weights sum to 1, so an element integral is
# the element area times the weighted sum.
_A1, _A2 = 0.445948490915965, 0.091576213509771
QUAD_POINTS = np.array([
    [1 - 2 * _A1, _A1, _A1], [_A1, 1 - 2 * _A1, _A1], [_A1, _A1, 1 - 2 * _A1],
    [1 - 2 * _A2, _A2, _A2], [_A2, 1 - 2 * _A2, _A2], [_A2, _A2, 1 - 2 * _A2],
])
QUAD_WEIGHTS = np.repeat([0.223381589678011, 0.109951743655322], 3)
# _W_I[q, i] = w_q phi_i and _W_IJ[q, 3i+j] = w_q phi_i phi_j at point q
_W_I = QUAD_WEIGHTS[:, None] * QUAD_POINTS
_W_IJ = (_W_I[:, :, None] * QUAD_POINTS[:, None, :]).reshape(len(QUAD_WEIGHTS), 9)


class StructuredTriMesh:
    """Uniform triangulation of [0,1]^2 with 2 n^2 right triangles."""

    def __init__(self, n_cells_per_side: int):
        if n_cells_per_side < 1:
            raise ValueError("n_cells_per_side must be >= 1")
        n = int(n_cells_per_side)
        self.n_cells_per_side = n
        xs = np.linspace(0.0, 1.0, n + 1)
        gx, gy = np.meshgrid(xs, xs, indexing="xy")
        # node index i + j*(n+1): x varies fastest
        self.nodes = np.column_stack([gx.ravel(), gy.ravel()])
        # the lower-left node of cell (i, j), cells with i fastest
        cells = np.arange(n, dtype=np.int64)
        ll = (cells[None, :] + (n + 1) * cells[:, None]).ravel()
        ul = ll + (n + 1)
        self.triangles = np.stack([
            np.column_stack([ll, ll + 1, ul + 1]),   # below the / diagonal
            np.column_stack([ll, ul + 1, ul]),       # above it
        ], axis=1).reshape(-1, 3)
        on_edge = (
            (self.nodes[:, 0] < _BOUNDARY_TOL)
            | (self.nodes[:, 0] > 1.0 - _BOUNDARY_TOL)
            | (self.nodes[:, 1] < _BOUNDARY_TOL)
            | (self.nodes[:, 1] > 1.0 - _BOUNDARY_TOL)
        )
        self.boundary_nodes = np.where(on_edge)[0]
        self._geometry()

    def _geometry(self) -> None:
        p0 = self.nodes[self.triangles[:, 0]]
        p1 = self.nodes[self.triangles[:, 1]]
        p2 = self.nodes[self.triangles[:, 2]]
        det = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) \
            - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])
        self.areas = 0.5 * det
        ys = np.stack([p0[:, 1], p1[:, 1], p2[:, 1]], axis=1)
        xs = np.stack([p0[:, 0], p1[:, 0], p2[:, 0]], axis=1)
        gx = (np.roll(ys, -1, axis=1) - np.roll(ys, -2, axis=1)) / det[:, None]
        gy = (np.roll(xs, -2, axis=1) - np.roll(xs, -1, axis=1)) / det[:, None]
        # grads[t, k, :] = gradient of the k-th local nodal basis on triangle t
        self.grads = np.stack([gx, gy], axis=2)
        # (nt, nq, 2) quadrature point coordinates, shared by the mesh's spaces
        self._qpts = QUAD_POINTS @ self.nodes[self.triangles]
        self._qpts.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def build_mesh(n: int) -> StructuredTriMesh:
    """Triangulate the unit square into an n x n grid of split squares."""
    return StructuredTriMesh(n)


class _P1Space:
    """Quadrature sampling and load vectors common to both P1 spaces.

    Row c * nt + t of ``element_dofs`` lists the dofs of component c on
    the nodes of triangle t; ``_value_shape`` is the shape of one field
    value, component-major.
    """

    _value_shape: tuple = ()

    def __init__(self, mesh: StructuredTriMesh, element_dofs: np.ndarray):
        self.mesh = mesh
        self._element_dofs = element_dofs
        self._qpts = mesh._qpts

    def quadrature_coords(self) -> np.ndarray:
        """(nt, nq, 2) coordinates of the quadrature points."""
        return self._qpts

    def _sampled_shape(self) -> tuple:
        """Shape of a field sampled at the quadrature points."""
        return self._value_shape + self._qpts.shape[:2]

    def eval_at_quadrature(self, dofs: np.ndarray) -> np.ndarray:
        """Field values at all quadrature points, component-major:
        (nt, nq) in the scalar space, (2, nt, nq) in the vector space."""
        return (np.asarray(dofs, dtype=float)[self._element_dofs]
                @ QUAD_POINTS.T).reshape(self._sampled_shape())

    def integrate(self, values_at_quadrature: np.ndarray) -> float:
        """Integrate a (nt, nq) sampled integrand over the mesh."""
        return float(np.einsum("q,tq,t->", QUAD_WEIGHTS,
                               values_at_quadrature, self.mesh.areas))

    def load_vector(self, values: np.ndarray) -> np.ndarray:
        """(g, v) for every basis function v of the space, by quadrature.

        ``values`` holds g at :meth:`quadrature_coords`, component-major as
        :meth:`eval_at_quadrature` returns it, or any shape that broadcasts
        to that.
        """
        shape = self._sampled_shape()
        values = np.asarray(values)
        if values.shape != shape:
            values = np.broadcast_to(values, shape)
        r_el = (values.reshape(-1, shape[-1]) @ _W_I).reshape(-1, shape[-2], 3)
        r_el *= self.mesh.areas[:, None]
        return np.bincount(self._element_dofs.ravel(), weights=r_el.ravel(),
                           minlength=self.n_dofs)


class ScalarP1Space(_P1Space):
    """Continuous piecewise-linear scalar space with one dof per node."""

    def __init__(self, mesh: StructuredTriMesh):
        super().__init__(mesh, mesh.triangles)

    @property
    def n_dofs(self) -> int:
        return self.mesh.n_nodes

    def eval_at_points(self, dofs: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Field values at (npts, 2) points of the unit square.

        Each point is located in its grid cell and the triangle of the cell
        that holds it; there the nodal basis is 1/3 + grad phi_k . (x - c)
        with c the triangle's centroid.
        """
        mesh = self.mesh
        n = mesh.n_cells_per_side
        pts = np.asarray(points, dtype=float)
        cell = np.minimum((pts * n).astype(np.int64), n - 1)
        local = pts * n - cell
        tri = 2 * (cell[:, 0] + n * cell[:, 1]) + (local[:, 1] > local[:, 0])
        nodes = mesh.triangles[tri]
        centroid = mesh.nodes[nodes].mean(axis=1)
        lam = 1.0 / 3.0 + np.einsum("pkc,pc->pk", mesh.grads[tri], pts - centroid)
        return np.einsum("pk,pk->p", lam, np.asarray(dofs, dtype=float)[nodes])

    def element_matrices(self, values: np.ndarray) -> np.ndarray:
        """(v phi_j, phi_i) on every triangle, for each component of v.

        ``values`` holds v at :meth:`quadrature_coords`, shape (..., nt, nq)
        with any leading component axes.  Returns shape (..., nt, 9): entry
        (..., t, 3i+j) pairs local basis functions i and j of triangle t.
        """
        m_el = (values.reshape(-1, values.shape[-1]) @ _W_IJ) \
            .reshape(values.shape[:-1] + (9,))
        m_el *= self.mesh.areas[:, None]
        return m_el


class VectorP1Space(_P1Space):
    """Two interleaved P1 components sharing the scalar node ordering."""

    _value_shape = (2,)

    def __init__(self, mesh: StructuredTriMesh):
        # (2 nt, 3): the x dofs of every triangle, then the y dofs
        dofs = 2 * mesh.triangles[None] + np.arange(2)[:, None, None]
        super().__init__(mesh, dofs.reshape(-1, 3))

    @property
    def n_dofs(self) -> int:
        return 2 * self.mesh.n_nodes

    @staticmethod
    def component_major(values: np.ndarray) -> np.ndarray:
        """A (..., 2) array of vectors, such as a data function returns at
        :meth:`quadrature_coords`, as the (2, ...) layout of this space."""
        return np.moveaxis(np.asarray(values, dtype=float), -1, 0)


def norm(space, dofs: np.ndarray, p: float = 2.0,
         against: Callable | None = None) -> float:
    """(integral of |u_h - u|^p)^(1/p) by element quadrature; plain norm if
    ``against`` is omitted."""
    if p <= 0:
        raise ValueError("p must be positive")
    vals = space.eval_at_quadrature(dofs)
    vector = isinstance(space, VectorP1Space)
    if against is not None:
        exact = against(space.quadrature_coords())
        vals = vals - (space.component_major(exact) if vector
                       else np.asarray(exact, dtype=float))
    mag = np.sqrt(np.sum(vals * vals, axis=0)) if vector else np.abs(vals)
    return space.integrate(mag ** p) ** (1.0 / p)
