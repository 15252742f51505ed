"""Structured triangulation of the unit square and equal-order P1 spaces.

The unit square is divided into an n x n grid of squares, each cut along
the lower-left to upper-right diagonal into two positively oriented
triangles.  Scalar fields use continuous piecewise-linear (P1) nodal
elements; vector fields use two interleaved P1 components sharing the
scalar node ordering (dof 2*i and 2*i+1 belong to node i).

Element quadrature defaults to a degree-4, 6-point rule, which integrates
every polynomial term of the discrete forms exactly and approximates the
non-polynomial generalized-polynomial flux terms well enough for the
bundled refinement studies; lower-order rules are available for
verification sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "QuadratureRule",
    "StructuredTriMesh",
    "ScalarP1Space",
    "VectorP1Space",
    "build_mesh",
    "interpolate",
    "l2_project",
    "norm",
    "element_divergence",
]

_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class QuadratureRule:
    """Points (barycentric) and weights on the reference triangle.

    Weights are normalized to sum to 1; element integrals multiply by the
    element area.  ``order`` is the highest polynomial degree integrated
    exactly.
    """

    order: int
    points: np.ndarray   # (nq, 3) barycentric coordinates
    weights: np.ndarray  # (nq,), sums to 1

    @classmethod
    def on_triangle(cls, order: int = 4) -> "QuadratureRule":
        if order <= 1:
            pts = np.array([[1 / 3, 1 / 3, 1 / 3]])
            wts = np.array([1.0])
            return cls(1, pts, wts)
        if order == 2:
            # edge-midpoint rule
            pts = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
            wts = np.full(3, 1 / 3)
            return cls(2, pts, wts)
        # Dunavant degree-4 rule, 6 points, all weights positive
        a1, w1 = 0.445948490915965, 0.223381589678011
        a2, w2 = 0.091576213509771, 0.109951743655322
        pts = np.array([
            [1 - 2 * a1, a1, a1], [a1, 1 - 2 * a1, a1], [a1, a1, 1 - 2 * a1],
            [1 - 2 * a2, a2, a2], [a2, 1 - 2 * a2, a2], [a2, a2, 1 - 2 * a2],
        ])
        wts = np.array([w1, w1, w1, w2, w2, w2])
        return cls(4, pts, wts)

    def basis_values(self) -> np.ndarray:
        """P1 nodal basis at the quadrature points: identical to ``points``."""
        return self.points


class StructuredTriMesh:
    """Uniform triangulation of [0,1]^2 with 2 n^2 right triangles."""

    def __init__(self, n_cells_per_side: int):
        if n_cells_per_side < 1:
            raise ValueError("n_cells_per_side must be >= 1")
        n = int(n_cells_per_side)
        self.n_cells_per_side = n
        self.h = 1.0 / n
        xs = np.linspace(0.0, 1.0, n + 1)
        gx, gy = np.meshgrid(xs, xs, indexing="xy")
        # node index i + j*(n+1): x varies fastest
        self.nodes = np.column_stack([gx.ravel(), gy.ravel()])
        tris = np.empty((2 * n * n, 3), dtype=np.int64)
        k = 0
        for j in range(n):
            for i in range(n):
                ll = i + j * (n + 1)
                lr = ll + 1
                ul = ll + (n + 1)
                ur = ul + 1
                tris[k] = (ll, lr, ur)       # below the / diagonal
                tris[k + 1] = (ll, ur, ul)   # above it
                k += 2
        self.triangles = tris
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
        if np.any(det <= 0.0):
            raise AssertionError("triangles must be positively oriented")
        self.areas = 0.5 * det
        ys = np.stack([p0[:, 1], p1[:, 1], p2[:, 1]], axis=1)
        xs = np.stack([p0[:, 0], p1[:, 0], p2[:, 0]], axis=1)
        gx = (np.roll(ys, -1, axis=1) - np.roll(ys, -2, axis=1)) / det[:, None]
        gy = (np.roll(xs, -2, axis=1) - np.roll(xs, -1, axis=1)) / det[:, None]
        # grads[t, k, :] = gradient of the k-th local nodal basis on triangle t
        self.grads = np.stack([gx, gy], axis=2)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def quad_points(self, rule: QuadratureRule) -> np.ndarray:
        """Physical coordinates of quadrature points, shape (nt, nq, 2)."""
        lam = rule.points
        p = self.nodes[self.triangles]  # (nt, 3, 2)
        return np.einsum("qk,tkc->tqc", lam, p)


def build_mesh(n: int) -> StructuredTriMesh:
    """Triangulate the unit square into an n x n grid of split squares."""
    return StructuredTriMesh(n)


class ScalarP1Space:
    """Continuous piecewise-linear scalar space with one dof per node."""

    def __init__(self, mesh: StructuredTriMesh,
                 quadrature: QuadratureRule | None = None):
        self.mesh = mesh
        self.quadrature = quadrature or QuadratureRule.on_triangle(4)
        self._qpts = mesh.quad_points(self.quadrature)
        self._mass = None

    @property
    def n_dofs(self) -> int:
        return self.mesh.n_nodes

    def eval_at_quadrature(self, dofs: np.ndarray) -> np.ndarray:
        """Field values at all quadrature points, shape (nt, nq)."""
        return np.asarray(dofs)[self.mesh.triangles] @ self.quadrature.basis_values().T

    def quadrature_coords(self) -> np.ndarray:
        return self._qpts

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

    def integrate(self, values_at_quadrature: np.ndarray) -> float:
        """Integrate a (nt, nq) sampled integrand over the mesh."""
        return float(np.einsum("q,tq,t->", self.quadrature.weights,
                               values_at_quadrature, self.mesh.areas))

    def load_vector(self, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """(g, phi_j) for all nodal test functions, by quadrature."""
        gq = np.asarray(g(self._qpts), dtype=float)
        r_el = np.einsum("q,tq,qk->tk", self.quadrature.weights, gq,
                         self.quadrature.basis_values()) * self.mesh.areas[:, None]
        out = np.zeros(self.n_dofs)
        np.add.at(out, self.mesh.triangles.ravel(), r_el.ravel())
        return out

    def mass_matrix(self, weight: Callable[[np.ndarray], np.ndarray] | None = None):
        """(w phi_i, phi_j); cached for the unweighted case."""
        if weight is None and self._mass is not None:
            return self._mass
        basis = self.quadrature.basis_values()
        wq = np.ones(self._qpts.shape[:2]) if weight is None \
            else np.asarray(weight(self._qpts), dtype=float) * np.ones(self._qpts.shape[:2])
        m_el = np.einsum("q,tq,qi,qj->tij", self.quadrature.weights, wq,
                         basis, basis) * self.mesh.areas[:, None, None]
        tris = self.mesh.triangles
        rows = np.repeat(tris, 3, axis=1).ravel()
        cols = np.tile(tris, (1, 3)).ravel()
        mat = sp.coo_matrix((m_el.ravel(), (rows, cols)),
                            shape=(self.n_dofs, self.n_dofs)).tocsr()
        if weight is None:
            self._mass = mat
        return mat


class VectorP1Space:
    """Two interleaved P1 components sharing the scalar node ordering."""

    def __init__(self, mesh: StructuredTriMesh,
                 quadrature: QuadratureRule | None = None):
        self.mesh = mesh
        self.quadrature = quadrature or QuadratureRule.on_triangle(4)
        self._qpts = mesh.quad_points(self.quadrature)
        tris = mesh.triangles
        # (nt, 6): local dof order (node0_x, node0_y, node1_x, ...)
        self.element_dof_map = (2 * tris[:, :, None]
                                + np.arange(2)[None, None, :]).reshape(-1, 6)

    @property
    def n_dofs(self) -> int:
        return 2 * self.mesh.n_nodes

    def as_nodal(self, dofs: np.ndarray) -> np.ndarray:
        return np.asarray(dofs, dtype=float).reshape(self.mesh.n_nodes, 2)

    def eval_at_quadrature(self, dofs: np.ndarray) -> np.ndarray:
        """Vector field at quadrature points, shape (nt, nq, 2)."""
        nodal = self.as_nodal(dofs)[self.mesh.triangles]  # (nt, 3, 2)
        return self.quadrature.basis_values() @ nodal

    def quadrature_coords(self) -> np.ndarray:
        return self._qpts

    def load_vector(self, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """(g, v) for all vector test functions; g maps (nt,nq,2) -> (nt,nq,2)."""
        gq = np.asarray(g(self._qpts), dtype=float)
        r_el = np.einsum("q,tqc,qk->tkc", self.quadrature.weights, gq,
                         self.quadrature.basis_values()) * self.mesh.areas[:, None, None]
        out = np.zeros(self.n_dofs)
        np.add.at(out, self.element_dof_map.ravel(), r_el.reshape(-1, 6).ravel())
        return out

    def divergence(self, dofs: np.ndarray) -> np.ndarray:
        """Per-triangle (constant) divergence, shape (nt,)."""
        nodal = self.as_nodal(dofs)[self.mesh.triangles]  # (nt, 3, 2)
        return np.einsum("tkc,tkc->t", self.mesh.grads, nodal)


def interpolate(space, g: Callable) -> np.ndarray:
    """Nodal interpolant; exact on members of the space."""
    nodes = space.mesh.nodes
    vals = np.asarray(g(nodes), dtype=float)
    if isinstance(space, VectorP1Space):
        if vals.shape != (space.mesh.n_nodes, 2):
            raise ValueError("vector interpolation needs g returning (n_nodes, 2)")
        return vals.reshape(-1)
    if vals.shape != (space.mesh.n_nodes,):
        vals = np.broadcast_to(vals, (space.mesh.n_nodes,)).copy()
    return vals


def l2_project(space, g: Callable) -> np.ndarray:
    """Solve the mass-matrix system so the residual is quadrature-orthogonal."""
    if isinstance(space, VectorP1Space):
        scalar = ScalarP1Space(space.mesh, space.quadrature)
        mass = scalar.mass_matrix()
        qpts = space.quadrature_coords()
        gq = np.asarray(g(qpts), dtype=float)
        out = np.empty((space.mesh.n_nodes, 2))
        for c in range(2):
            rhs = scalar.load_vector(lambda pts, c=c: np.asarray(g(pts))[..., c]
                                     * np.ones(pts.shape[:2]))
            out[:, c] = _solve_spd(mass, rhs)
        return out.reshape(-1)
    mass = space.mass_matrix()
    rhs = space.load_vector(lambda pts: np.asarray(g(pts), dtype=float)
                            * np.ones(pts.shape[:2]))
    return _solve_spd(mass, rhs)


def _solve_spd(mat, rhs: np.ndarray) -> np.ndarray:
    sol = spla.spsolve(mat.tocsc(), rhs)
    resid = np.linalg.norm(mat @ sol - rhs)
    scale = max(np.linalg.norm(rhs), 1.0)
    if not np.isfinite(resid) or resid > 1e-10 * scale:
        raise RuntimeError(f"mass solve failed: residual {resid:.3e}")
    return sol


def norm(space, dofs: np.ndarray, p: float = 2.0,
         against: Callable | None = None) -> float:
    """(integral of |u_h - u|^p)^(1/p) by element quadrature; plain norm if
    ``against`` is omitted."""
    if p <= 0:
        raise ValueError("p must be positive")
    qpts = space.quadrature_coords()
    vals = space.eval_at_quadrature(np.asarray(dofs, dtype=float))
    if isinstance(space, VectorP1Space):
        if against is not None:
            vals = vals - np.asarray(against(qpts), dtype=float)
        mag = np.sqrt(np.sum(vals * vals, axis=-1))
    else:
        if against is not None:
            vals = vals - np.asarray(against(qpts), dtype=float)
        mag = np.abs(vals)
    total = np.einsum("q,tq,t->", space.quadrature.weights, mag ** p,
                      space.mesh.areas)
    return float(total) ** (1.0 / p)


def element_divergence(space: VectorP1Space, dofs: np.ndarray,
                       triangle: int) -> float:
    """Constant divergence of the P1 vector field on one triangle."""
    if not 0 <= triangle < space.mesh.n_triangles:
        raise IndexError(f"triangle {triangle} out of range")
    return float(space.divergence(dofs)[triangle])

