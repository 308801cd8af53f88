"""Elements of U(p,1)/PU(p,1): action, embeddings, sampling.

Matrices are stored up to a positive scalar (the form is preserved up to
lambda > 0), so no determinant normalization is enforced; projective
isometry groups act through these representatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import HermitianModel, ProjPoint, _gram

__all__ = [
    "Isometry",
    "EmbeddingMap",
    "apply_isometry",
    "standard_embedding",
    "random_isometry",
    "translation_along_axis",
]


@dataclass(frozen=True)
class Isometry:
    """A (p+1)x(p+1) complex matrix with M* J M = lambda J, lambda > 0."""

    matrix: np.ndarray
    source_p: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        n = self.source_p + 1
        if m.shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n}")
        lam = self.form_scale()
        if not lam > 0:
            raise ValueError("matrix does not preserve the form positively")
        res = _form_residual(m, lam, self.source_p, self.source_p)
        if not res <= 1e-10 * max(1.0, np.linalg.norm(m) ** 2):
            raise ValueError(f"form-preservation residual too large: {res:.2e}")

    def form_scale(self):
        return _pulled_back_form(self.matrix, self.source_p, self.source_p)[1]

    def inverse(self):
        return Isometry(np.linalg.inv(self.matrix), self.source_p)

    def __matmul__(self, other):
        if isinstance(other, Isometry):
            return Isometry(self.matrix @ other.matrix, self.source_p)
        return NotImplemented

    def conjugate(self):
        """Entrywise complex conjugate; represents the antiholomorphic mirror."""
        return Isometry(self.matrix.conj(), self.source_p)


def _pulled_back_form(W, p, q):
    """(M, lam): M = Jp S, where S = W* Jq W is the Gram matrix of the
    target form on the source, and its scale lam = tr(M)/(p+1).  W is a
    form isometry of scale lam exactly when M = lam I."""
    M = HermitianModel(p).form_diagonal[:, None] * _gram(W, W)
    return M, float(np.trace(M).real / (p + 1))


def _eig_function(M, f):
    """f(M) = V diag(f(mu)) V^-1 for a diagonalizable M = V diag(mu) V^-1."""
    mu, V = np.linalg.eig(M)
    return (V * f(mu)) @ np.linalg.inv(V)


def _form_residual(W, lam, p, q):
    """Frobenius norm of W* Jq W - lam Jp, which is that of Jp S - lam I."""
    M, _ = _pulled_back_form(W, p, q)
    return float(np.linalg.norm(M - lam * np.eye(p + 1)))


@dataclass(frozen=True)
class EmbeddingMap:
    """Linear map W: C^{p+1} -> C^{q+1} with <Wv, Ww>_q = scale <v, w>_p."""

    matrix: np.ndarray
    source_p: int
    target_q: int
    scale: float = 1.0

    def __post_init__(self):
        W = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", W)
        if W.shape != (self.target_q + 1, self.source_p + 1):
            raise ValueError("embedding matrix shape mismatch")
        if not self.scale > 0:
            raise ValueError("embedding scale must be positive")
        res = _form_residual(W, self.scale, self.source_p, self.target_q)
        if not res <= 1e-9 * max(1.0, np.linalg.norm(W) ** 2):
            raise ValueError(f"not a form isometry up to scale (residual {res:.2e})")

    def push_point(self, x, target_model=None):
        model = target_model or HermitianModel(self.target_q)
        return ProjPoint(self.matrix @ x.lift, model=model)

    def push_isometry(self, g):
        """Conjugate a source isometry into the target group on the image block.

        Satisfies ``push_isometry(g).push_point(x) = push_point(g x)`` and
        acts as the identity on the J-orthocomplement of the image.
        """
        if g.source_p != self.source_p:
            raise ValueError("dimension mismatch")
        q, p = self.target_q, self.source_p
        W = self.matrix / np.sqrt(self.scale)
        # columns of W are J-orthonormal with signs (+..+, -); complete them
        # to a basis by J-Gram-Schmidt over the standard basis
        basis = list(zip(W.T, HermitianModel(p).form_diagonal))
        for k in range(q + 1):
            if len(basis) == q + 1:
                break
            v = np.zeros(q + 1, dtype=complex)
            v[k] = 1.0
            for u, sgn in basis:
                v = v - (_gram(u, v) / sgn) * u
            nv = _gram(v, v).real
            if abs(nv) > 1e-8:
                basis.append((v / np.sqrt(abs(nv)), np.sign(nv)))
        B = np.column_stack([u for u, _ in basis])
        blk = np.zeros((q + 1, q + 1), dtype=complex)
        blk[: p + 1, : p + 1] = g.matrix
        blk[p + 1 :, p + 1 :] = np.eye(q - p)
        return Isometry(B @ blk @ np.linalg.inv(B), q)


def apply_isometry(g, x):
    """Image of a point under an isometry; preserves kind and distances."""
    if g.matrix.shape[0] != x.lift.shape[0]:
        raise ValueError("dimension mismatch")
    return ProjPoint(g.matrix @ x.lift, model=x.model)


def standard_embedding(p, q):
    """The block embedding (z_1..z_p, w) -> (z_1..z_p, 0..0, w); scale 1."""
    if q < p:
        raise ValueError("target dimension must satisfy q >= p")
    W = np.zeros((q + 1, p + 1), dtype=complex)
    W[:p, :p] = np.eye(p)
    W[q, p] = 1.0
    return EmbeddingMap(W, source_p=p, target_q=q, scale=1.0)


def random_isometry(p, seed, sigma=1.0):
    """Reproducible random element: exp of a Gaussian element of u(p,1).

    The Lie algebra is {A : A* J + J A = 0}; a Gaussian matrix is projected
    onto it and exponentiated through its eigendecomposition,
    exp(A) = V diag(e^mu) V^-1.  A Gaussian A has distinct eigenvalues with
    probability 1, and at sigma = 0 it is the zero matrix, so this is the
    matrix exponential.  Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    n = p + 1
    A = rng.normal(size=(n, n), scale=sigma) + 1j * rng.normal(size=(n, n), scale=sigma)
    J = HermitianModel(p).form_diagonal
    A = 0.5 * (A - J[:, None] * A.conj().T * J)  # minus the form adjoint J A* J
    return Isometry(_eig_function(A, np.exp), p)


def translation_along_axis(p, length, axis=0):
    """Hyperbolic translation through the origin along a coordinate axis.

    The axis is the geodesic through the origin in the ``axis``-th complex
    coordinate direction; ``length`` is the translation distance for the
    model normalization metric_scale = 4.
    """
    t = length / 2.0  # scale-4 arclength parameter of the flow
    m = np.eye(p + 1, dtype=complex)
    m[axis, axis] = np.cosh(t)
    m[axis, p] = np.sinh(t)
    m[p, axis] = np.sinh(t)
    m[p, p] = np.cosh(t)
    return Isometry(m, p)
