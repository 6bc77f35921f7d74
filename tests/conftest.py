import numpy as np
import pytest
import scipy.sparse as sp

from pxlap.existence import System
from pxlap.exponents import ExponentField
from pxlap.mesh import build_interval_mesh, build_rectangle_mesh
from pxlap.operator import OperatorContext


@pytest.fixture(scope="session")
def mesh64():
    return build_interval_mesh(0.0, 1.0, 64)


@pytest.fixture(scope="session")
def mesh2d():
    return build_rectangle_mesh(0.0, 0.0, 1.0, 1.0, 8, 8)


@pytest.fixture(scope="session")
def p2_64(mesh64):
    return ExponentField(mesh64, 2.0)


@pytest.fixture(scope="session")
def pvar_64(mesh64):
    return ExponentField(mesh64, "2 + x")


@pytest.fixture(scope="session")
def ctx2_64(mesh64, p2_64):
    return OperatorContext(mesh64, p2_64)


@pytest.fixture(scope="session")
def ctxvar_64(mesh64, pvar_64):
    return OperatorContext(mesh64, pvar_64)


@pytest.fixture(scope="session")
def sys2_64(ctx2_64):
    return System.build(ctx2_64, ctx2_64)


@pytest.fixture(scope="session")
def eig2_64(sys2_64):
    return sys2_64.eigs[0]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def no_large_linspace(monkeypatch):
    """Fail, instead of allocating, when a mesh axis of over 10^6 nodes is built."""
    linspace = np.linspace

    def guarded(start, stop, num=50, **kwargs):
        assert num <= 10**6, f"a mesh axis of {num} nodes was allocated"
        return linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", guarded)


def random_dirichlet_field(mesh, rng, scale=1.0):
    vals = np.zeros(mesh.n_nodes)
    vals[mesh.interior_nodes] = scale * rng.standard_normal(len(mesh.interior_nodes))
    from pxlap.mesh import GridFunction

    return GridFunction(mesh, vals)


def load_at_qp(mesh, fn):
    """The load ``fn`` of a point array at the quadrature points of ``mesh``,
    as the solvers take it: shape (n_elements, n_qp)."""
    flat = np.asarray(fn(mesh.quad_points_flat), dtype=float)
    return np.broadcast_to(flat, (len(mesh.quad_points_flat),)).reshape(mesh.n_elements, mesh.n_qp)


def _ref_matrix(mesh, blocks):
    """Interior matrix of a k x k grid of element arrays, built the way the
    solvers built it before the plan kept one: a CSR matrix per block on the
    row-major interior pattern, summed by np.bincount, stacked by sp.bmat."""
    n = len(mesh.interior_nodes)
    dof = np.full(mesh.n_nodes, -1)
    dof[mesh.interior_nodes] = np.arange(n)
    local = dof[mesh.elements]
    keep = np.flatnonzero((local[:, :, None] >= 0) & (local[:, None, :] >= 0))
    key = (local[:, :, None] * n + local[:, None, :]).ravel()[keep]
    slots, scatter = np.unique(key, return_inverse=True)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(slots // n, minlength=n))))

    def csr(K):
        data = np.bincount(scatter, weights=K.ravel()[keep], minlength=len(slots))
        return sp.csr_matrix((data, slots % n, indptr), shape=(n, n))

    return sp.bmat([[csr(K) for K in row] for row in blocks], format="csc")

