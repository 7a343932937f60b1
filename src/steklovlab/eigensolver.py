"""Generalized eigensolvers for pencils A0 u = lambda B u with complex
symmetric A0 and real symmetric PSD (typically singular) B.

The singular B makes the pencil have infinite eigenvalues; in shift-invert
coordinates theta = 1/(lambda - sigma) they collapse to theta = 0 and are
discarded below a relative cutoff.  Every reported pair carries a residual
certificate (see :func:`pencil_residual`)

    ||A0 x - lambda B x|| / (||A0||_inf ||x|| + |lambda| ||B x||) <= tol,

so downstream consumers never rely on solver-internal convergence estimates.

The shift-invert Arnoldi driver runs with full reorthogonalization and
deterministic seeded start vectors.  Certified pairs are locked as a partial
Schur form T Q = Q R of T = (A0 - sigma B)^-1 B (orthonormal Q, triangular
R), and each later sweep runs on T deflated by Q, which is what recovers the
remaining copies of (numerically) multiple eigenvalues that a single Krylov
vector cannot see.  Since the pencils are non-normal, a Ritz vector of the
deflated operator is not an eigenvector; it is lifted to one through R
before it is certified.  Once k pairs are locked, a sweep whose dominant
Ritz value has settled outside the disk of the k nearest locked values ends
the solve (Saad, Numerical Methods for Large Eigenvalue Problems, 2nd ed.,
SIAM 2011, ch. 4; Lehoucq & Sorensen, SIAM J. Matrix Anal. Appl. 17(4),
1996).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .boundary_ops import BoundaryGram, LUFactor
from .errors import ShiftAtEigenvalue

DEFAULT_THETA_CUT = 1e-10
# largest relative probe residual of a shifted factor: above it sigma is an eigenvalue
SINGULAR_RESIDUAL = 1e-6


@dataclass
class EigenResult:
    """Certified eigenpairs, their residual certificates and the solver's record."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.eigenvalues)


@dataclass
class SectorCensus:
    inside: int
    outside: int
    in_disk: int
    delta: float
    radius: float


# --------------------------------------------------------------------- #
# operator plumbing
# --------------------------------------------------------------------- #

def _a0_norm(A0):
    """Max row sum of |A0| (infinity norm), of a sparse or dense A0."""
    return float(abs(A0).sum(axis=1).max())


def pencil_residual(A0, B, lam, x, a0_norm):
    """Normwise relative residual of a candidate pair (lam, x):

        ||A0 x - lam B x|| / (||A0||_inf ||x|| + |lam| ||B x||).

    Anchoring the denominator at the matrix norm keeps the certificate
    meaningful for lam = 0 eigenpairs (A0 x itself is the residual there,
    so a vector-based denominator would degenerate to ratio one).
    ``a0_norm`` is ||A0||_inf (``_a0_norm``), which a solve computes once.
    """
    av = A0 @ x
    bv = B @ x
    num = np.linalg.norm(av - lam * bv)
    den = a0_norm * np.linalg.norm(x) + abs(lam) * np.linalg.norm(bv)
    return float(num / den) if den > 0 else np.inf


class _ShiftedSolver:
    """Factorization of (A0 - sigma B) with an apply for (A0 - sigma B)^-1 B.

    For a matrix-free boundary Gram form B = D^T L^+ D the shifted solve is
    done through the sparse augmented system on the free (non-grounded)
    surface vertices f of its GroundedLaplacian, with the surface unknown
    scaled by sigma,

        K = [A0         -D_f^T]     K [x; y] = [0; -D_f v]  gives  (A0 - sigma B) x = B v,
            [sigma D_f  -L_ff ],

    which avoids densifying B, stays nonsingular at sigma = 0, and makes an
    apply one solve with no B product; dropping the grounded rows and
    columns is harmless because D^T annihilates functions constant on each
    component.  K is singular exactly when its Schur complement A0 - sigma B
    is, so the factor's ``probe_residual`` tells a singular shift on either form.
    """

    def __init__(self, A0, B, sigma):
        sigma = complex(sigma)
        self.B = B
        self.n = A0.shape[0]

        self._Df = None            # D_f of the augmented form; None for an explicit B
        if isinstance(B, BoundaryGram):
            self._Df = B.D_free
            matrix = sp.bmat(
                [[A0, -self._Df.T],
                 [sigma * self._Df, -B.laplacian.L_ff]],
                format="csc",
            )
        else:
            matrix = (A0 - sigma * B).tocsc()
        try:
            # through this module's spla, where perfbench/tracing.py counts the shifted factors
            self._lu = LUFactor(matrix, spla.splu)
        except RuntimeError as exc:
            raise ShiftAtEigenvalue(f"factorization failed: {exc}") from exc
        if not self._lu.probe_residual <= SINGULAR_RESIDUAL:     # NaN included
            raise ShiftAtEigenvalue(
                f"shifted pencil at sigma={sigma} is numerically singular "
                f"(probe residual {self._lu.probe_residual:.2e})"
            )

    def apply(self, v):
        """(A0 - sigma B)^-1 (B v)."""
        if self._Df is not None:
            rhs = np.concatenate([np.zeros(self.n, dtype=np.complex128), -(self._Df @ v)])
            return self._lu.solve(rhs)[: self.n]
        return self._lu.solve((self.B @ v).astype(np.complex128))


# --------------------------------------------------------------------- #
# shift-invert Arnoldi with locking
# --------------------------------------------------------------------- #

def _cgs2(Q, w):
    """w minus its component in the orthonormal columns of Q, by two
    classical Gram-Schmidt passes, and that component Q^H w."""
    # Q^H w as (w^H Q)^H: a gemv on Q itself, no conjugate copy of Q
    c = (w.conj() @ Q).conj()
    w = w - Q @ c
    c2 = (w.conj() @ Q).conj()
    return w - Q @ c2, c + c2


class _PartialSchur:
    """Partial Schur form T Q = Q R of T = (A0 - sigma B)^-1 B: orthonormal
    Q (n x p), upper-triangular R (p x p) carrying the locked theta on its
    diagonal.  It holds to the accuracy of the certified pairs it is built
    from.
    """

    def __init__(self, n):
        self.Q = np.zeros((n, 0), dtype=np.complex128)
        self.R = np.zeros((0, 0), dtype=np.complex128)

    def lock(self, theta, x):
        """Extend by a certified pair: x = Q c + r q, and T x = theta x gives
        T q = Q (theta c - R c) / r + theta q, so no operator apply is needed."""
        w, c = _cgs2(self.Q, x)
        r = np.linalg.norm(w)
        p = len(c)
        R = np.zeros((p + 1, p + 1), dtype=np.complex128)
        R[:p, :p] = self.R
        R[:p, p] = (theta * c - self.R @ c) / r
        R[p, p] = theta
        self.Q = np.concatenate([self.Q, (w / r)[:, None]], axis=1)
        self.R = R

    def recover(self, theta, y, g):
        """Eigenvector x = y + Q z of T for a Ritz pair (theta, y) of the
        deflated operator, where T y = theta y + Q g: (theta I - R) z = g.

        The min-norm solve drops the directions where theta meets a locked
        value, so a further copy of a locked eigenvalue gets no Q-component.
        """
        z = np.linalg.lstsq(theta * np.eye(len(g)) - self.R, g, rcond=1e-8)[0]
        return y + self.Q @ z

    def defect(self):
        """max |Q^H Q - I|."""
        p = self.Q.shape[1]
        return float(np.abs(self.Q.conj().T @ self.Q - np.eye(p)).max()) if p else 0.0


class _Arnoldi:
    """Full-reorthogonalization Arnoldi factorization, deflated against the
    orthonormal ``locked`` columns Q, that ``extend`` resumes from where it
    stopped.

    H ((cap + 1) x cap) and G (p x cap) are allocated once; V grows to
    n x (m + 1) when ``extend(m)`` starts, so it holds only the columns the
    sweep reaches.  After ``steps`` operator applies,

        apply_op V[:, :steps] = Q G[:, :steps] + V[:, :steps + 1] H[:steps + 1, :steps].

    On breakdown the captured space is invariant and beta = 0, otherwise
    beta is the trailing coupling H[steps, steps - 1] used for cheap Ritz
    convergence estimates.
    """

    def __init__(self, apply_op, v0, locked, cap):
        n = v0.shape[0]
        self.apply_op = apply_op
        self.locked = locked
        self.V = np.zeros((n, 1), dtype=np.complex128)
        self.H = np.zeros((cap + 1, cap), dtype=np.complex128)
        self.G = np.zeros((locked.shape[1], cap), dtype=np.complex128)
        self.steps = 0
        self.beta = 0.0
        v = v0.astype(np.complex128)
        if locked.shape[1]:         # nothing to project out before the first lock
            v = _cgs2(locked, v)[0]
        nv = np.linalg.norm(v)
        self.breakdown = nv == 0.0
        if not self.breakdown:
            self.V[:, 0] = v / nv

    def extend(self, m):
        """Continue the factorization up to ``m`` steps (or a breakdown)."""
        if self.breakdown:
            return
        if self.V.shape[1] < m + 1:
            V = np.zeros((self.V.shape[0], m + 1), dtype=np.complex128)
            V[:, : self.V.shape[1]] = self.V
            self.V = V
        V, H = self.V, self.H
        for j in range(self.steps, m):
            w = self.apply_op(V[:, j])
            if self.locked.shape[1]:
                w, self.G[:, j] = _cgs2(self.locked, w)
            self.steps = j + 1
            w, h = _cgs2(V[:, : j + 1], w)
            H[: j + 1, j] = h
            beta = np.linalg.norm(w)
            H[j + 1, j] = beta
            scale = np.abs(h).max() if np.abs(h).max() > 0 else 1.0
            if beta <= 1e-12 * scale or beta == 0.0:
                self.breakdown = True
                self.beta = 0.0
                return
            V[:, j + 1] = w / beta
            self.beta = float(beta)


# Relative slack in "outside the k-nearest disk": a further copy of the k-th
# nearest eigenvalue sits at the k-th distance up to roundoff and changes no
# answer, so it must count as outside rather than keep a sweep growing.
TIE_MARGIN = 1e-8

# Operator applies between two checkpoints of a sweep.  The default first
# checkpoint is max(k, CHECKPOINT) + CHECKPOINT: k + 10, but at least 20
# applies (the k = 6 and 8 solves of a cube n=4 study took fewer applies with
# checkpoints at 20, 30, ... than at k + 10, k + 20, ...).
CHECKPOINT = 10

# Fewest operator applies at which a sweep's growth is capped (the cap is
# min(n, max(2 m0, MAX_KRYLOV)) for a first checkpoint m0).
MAX_KRYLOV = 150

# Krylov sweeps a solve runs at most.
MAX_SWEEPS = 12


def solve_shift_invert(A0, B, sigma, k, tol=1e-10, seed=0) -> EigenResult:
    """Shift-invert Arnoldi for the k eigenvalues nearest ``sigma``.

    ``A0`` is a sparse matrix, ``B`` a sparse matrix or a matrix-free
    boundary Gram form.  Ritz values theta of T = (A0 - sigma B)^-1 B map
    back through lambda = sigma + 1/theta; near-zero theta are
    infinite-eigenvalue modes of the singular pencil and are never reported.

    Certified pairs are locked into a partial Schur form T Q = Q R, and
    every later sweep runs Arnoldi on T deflated by Q from a fresh seeded
    start, which is what recovers further copies of multiple eigenvalues.
    A Ritz pair (theta, y) of a deflated sweep is lifted to an eigenvector
    of T through R (see ``_PartialSchur.recover``) and certified as such.

    Each sweep extends one Arnoldi factorization through checkpoints
    ``CHECKPOINT`` applies apart.  The first sweep's first checkpoint is
    m0 = max(k, CHECKPOINT) + CHECKPOINT; a later sweep's is
    min(m0, max(2 (k - locked) + 10, 15)).  A checkpoint's candidates are
    the Ritz values inside the k-nearest disk with Arnoldi residual
    beta |y_m| <= 100 tol |theta|.  With ``need`` = max(k - locked, 1), it
    certifies exactly these, nearest first, and locks every one that
    passes, once there are ``need`` of them, the space broke down, or it is
    at the cap of min(n, max(2 m0, ``MAX_KRYLOV``)) applies.  The sweep
    ends ``certified`` once ``need`` pairs pass, or at a breakdown or the cap
    with any passed pair, and the next sweep starts; otherwise it grows.
    Once k pairs are locked, a sweep whose dominant Ritz value has settled
    outside the disk of the k nearest locked values ends the solve
    (``spectral``: the answer is final).  The solve also ends when a sweep's
    space breaks down without a new pair (meta["exhausted"] if fewer than k
    were found), reaches the cap without one, or runs ``MAX_SWEEPS``
    sweeps (meta["partial"] whenever fewer than k pairs are reported).
    meta["confirmed"] holds when k pairs are reported and the last sweep
    ended on the spectral test or a breakdown; a sweep cut by the cap or
    ``MAX_SWEEPS`` leaves the k nearest unconfirmed.  meta["sweeps"]
    records per sweep the operator applies, the pairs locked, the stop
    reason and the Ritz values discarded as infinite modes at its last
    checkpoint; meta["schur_defect"] is max |Q^H Q - I|.  Raises
    ``ShiftAtEigenvalue`` when the shifted factor fails or its probe residual
    exceeds ``SINGULAR_RESIDUAL``.
    """
    n = A0.shape[0]
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    solver = _ShiftedSolver(A0, B, sigma)
    sigma = complex(sigma)
    a0n = _a0_norm(A0)

    m0 = max(k, CHECKPOINT) + CHECKPOINT
    cap = min(n, max(2 * m0, MAX_KRYLOV))
    m0 = min(m0, cap)

    schur = _PartialSchur(n)
    locked_vecs: list[np.ndarray] = []
    locked_vals: list[complex] = []
    locked_res: list[float] = []
    sweeps: list[dict] = []

    for sweep in range(MAX_SWEEPS):
        rng = np.random.default_rng(seed + 1000 * sweep)
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        need = max(k - len(locked_vals), 1)
        # later sweeps only chase the remaining copies near sigma
        m = m0 if sweep == 0 else min(m0, max(2 * (k - len(locked_vals)) + 10, 15))
        # distance of the k-th nearest locked value; a Ritz value farther out
        # cannot change the answer
        dist = np.sort(np.abs(np.array(locked_vals) - sigma))
        r_k = (1.0 - TIE_MARGIN) * dist[k - 1] if len(dist) >= k else np.inf
        krylov = _Arnoldi(solver.apply, v0, schur.Q, cap)
        stop = None
        n_infinite = 0
        while stop is None:
            new_pairs = []      # the pairs certified at this checkpoint
            # resume the factorization: applied vectors are never applied again
            krylov.extend(m)
            steps, beta = krylov.steps, krylov.beta
            if steps == 0:
                stop = "breakdown"
                break
            theta, Y = np.linalg.eig(krylov.H[:steps, :steps])
            tmax = np.abs(theta).max()
            finite = np.nonzero(np.abs(theta) > DEFAULT_THETA_CUT * tmax)[0]
            n_infinite = steps - len(finite)
            # dominant Ritz values first; the Arnoldi coupling beta |y_m|
            # tells settled ones
            order = finite[np.argsort(-np.abs(theta[finite]), kind="stable")]
            settle = beta * np.abs(Y[steps - 1])
            if len(order):
                j = order[0]
                if settle[j] <= 1e-2 * np.abs(theta[j]) and 1.0 / np.abs(theta[j]) > r_k:
                    stop = "spectral"
                    break
            # candidates: Ritz values inside the k-nearest disk, nearest first,
            # whose Arnoldi residual is near enough tol to pass the certificate;
            # certify once they cover the pairs still needed or the space cannot grow
            at_end = krylov.breakdown or m >= cap
            near = order[1.0 / np.abs(theta[order]) <= r_k]
            ready = near[settle[near] <= 100 * tol * np.abs(theta[near])]
            if not at_end and len(ready) < need:
                m = min(m + CHECKPOINT, cap)
                continue
            for j in ready:
                x = schur.recover(theta[j], krylov.V[:, :steps] @ Y[:, j],
                                  krylov.G[:, :steps] @ Y[:, j])
                x = x / np.linalg.norm(x)
                lam = sigma + 1.0 / theta[j]
                res = pencil_residual(A0, B, lam, x, a0n)
                if res <= tol:
                    new_pairs.append((theta[j], x, res))
            if len(new_pairs) >= need or (at_end and new_pairs):
                stop = "certified"
            elif krylov.breakdown:
                stop = "breakdown"
            elif at_end:
                stop = "budget"
            else:
                m = min(m + CHECKPOINT, cap)
        for th, x, res in new_pairs:
            schur.lock(th, x)
            locked_vecs.append(x)
            locked_vals.append(sigma + 1.0 / th)
            locked_res.append(res)
        sweeps.append({"applies": krylov.steps, "locked": len(new_pairs), "stop": stop,
                       "discarded_infinite": n_infinite})
        if stop != "certified":
            break

    lam = np.array(locked_vals, dtype=np.complex128)
    res = np.array(locked_res)
    order = np.lexsort((lam.imag, lam.real, np.abs(lam - sigma)))
    order = order[: min(k, len(order))]
    vecs = np.stack(locked_vecs, axis=1) if locked_vecs else np.zeros((n, 0), dtype=np.complex128)
    return EigenResult(
        eigenvalues=lam[order],
        eigenvectors=vecs[:, order],
        residuals=res[order],
        meta={
            "converged": int(len(order)),
            "iterations": sum(s["applies"] for s in sweeps),
            "exhausted": bool(sweeps[-1]["stop"] == "breakdown" and len(order) < k),
            "partial": bool(len(order) < k),
            # k pairs, and a last sweep that saw nothing closer
            "confirmed": bool(len(order) == k and sweeps[-1]["stop"] in ("spectral", "breakdown")),
            "sweeps": sweeps,
            "schur_defect": schur.defect(),
        },
    )


# --------------------------------------------------------------------- #
# clustering and census
# --------------------------------------------------------------------- #

def cluster(values, reltol=1e-6):
    """Single-linkage clustering of eigenvalues with relative gap ``reltol``:
    the connected components of the graph that joins two values at most
    reltol * max|lambda| apart, labelled 0, 1, ... in the order of their
    first members.

    Returns ``(labels, means)``: the label of each value, and the mean of
    each cluster's members indexed by label (each reported value counts with
    its numerical multiplicity one).
    """
    vals = np.asarray(values, dtype=np.complex128)
    scale = float(np.abs(vals).max(initial=0.0))
    near = np.abs(vals[:, None] - vals[None, :]) <= reltol * (scale if scale > 0 else 1.0)
    # scipy numbers the components in the order of their lowest-index members
    n_clusters, labels = connected_components(sp.csr_matrix(near), directed=False)
    return labels, np.array([vals[labels == c].mean() for c in range(n_clusters)],
                            dtype=np.complex128)


# Moduli at most this fraction of the largest count as zero in a sector census.
CENSUS_ZERO = 1e-10


def sector_census(values, delta, radius) -> SectorCensus:
    """Count eigenvalues with |lambda| <= radius split by |arg lambda| < delta.

    arg(0) counts as inside the sector, and so does the argument of a value
    within ``CENSUS_ZERO`` of zero relative to the largest |lambda|: a
    computed zero eigenvalue (roundoff in both parts) has no meaningful
    argument.
    """
    if not (0.0 < delta < np.pi):
        raise ValueError(f"delta must be in (0, pi), got {delta}")
    vals = np.asarray(values, dtype=np.complex128)
    mods = np.abs(vals)
    in_disk = mods <= radius
    args = np.abs(np.angle(vals[in_disk]))
    args[mods[in_disk] <= CENSUS_ZERO * mods.max(initial=0.0)] = 0.0
    inside = int(np.sum(args < delta))
    outside = int(np.sum(args >= delta))
    return SectorCensus(inside, outside, int(in_disk.sum()), float(delta), float(radius))
