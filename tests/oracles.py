"""Independent oracles used by the test suite only.

These deliberately avoid the production code paths they check: a second
root finder (Aberth-Ehrlich), the one-polynomial-at-a-time root finder
that the batched ``poly_roots`` must reproduce bit for bit, a generic
Routh table, congruence products by plain matrix multiplication,
eigendecomposition propagation of the linear system, and a per-row
f-string region CSV writer that the block writer must match byte for
byte.
"""

from __future__ import annotations

import numpy as np


def aberth_roots(asc: np.ndarray, tol: float = 1e-14, max_iter: int = 200) -> np.ndarray:
    """All roots of a polynomial (ascending coefficients) by simultaneous
    Aberth-Ehrlich iteration started on a Cauchy-bound circle."""
    desc = np.asarray(asc, dtype=complex)[::-1]
    desc = desc / desc[0]
    n = desc.size - 1
    deriv = np.polyder(desc)
    radius = 1.0 + np.max(np.abs(desc[1:]))
    angles = 2 * np.pi * (np.arange(n) + 0.25) / n
    z = radius * np.exp(1j * angles)
    for _ in range(max_iter):
        pv = np.polyval(desc, z)
        dv = np.polyval(deriv, z)
        ratio = np.where(np.abs(dv) > 0, pv / np.where(np.abs(dv) > 0, dv, 1), 0)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        corr = ratio / (1 - ratio * np.sum(1.0 / diff, axis=1))
        z = z - corr
        if np.max(np.abs(corr)) < tol * max(1.0, np.max(np.abs(z))):
            break
    return z


def np_roots_polished(asc) -> np.ndarray:
    """``np.roots`` plus one guarded Newton step by ``np.polyval`` per root."""
    desc = np.asarray(asc, dtype=float)[::-1]
    roots = np.roots(desc)
    pv = np.polyval(desc, roots)
    dv = np.polyval(np.polyder(desc), roots)
    safe = np.abs(dv) > 0
    polished = np.where(safe, roots - np.where(safe, pv, 0) / np.where(safe, dv, 1), roots)
    better = np.abs(np.polyval(desc, polished)) < np.abs(pv)
    return np.where(better, polished, roots)


def routh_first_column(asc) -> np.ndarray:
    """First column of the classical Routh table (descending reduction)."""
    desc = np.asarray(asc, dtype=float)[::-1]
    n = desc.size - 1
    row0 = np.array(desc[0::2], dtype=float)
    row1 = np.array(desc[1::2], dtype=float)
    if row1.size < row0.size:
        row1 = np.append(row1, 0.0)
    col = [row0[0], row1[0]]
    for _ in range(n - 1):
        new = np.zeros_like(row0)
        for j in range(row0.size - 1):
            new[j] = (row1[0] * row0[j + 1] - row0[0] * row1[j + 1]) / row1[0]
        col.append(new[0])
        row0, row1 = row1, new
    return np.array(col[: n + 1])


def congruence(transform: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Plain-product congruence Tᵀ M T."""
    return transform.T @ mat @ transform


def propagate_linear(system: np.ndarray, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exact evolution of ẏ = J y via eigendecomposition; shape (len(t), n)."""
    vals, vecs = np.linalg.eig(system)
    c = np.linalg.solve(vecs, y0.astype(complex))
    out = (vecs @ (np.exp(np.outer(vals, times)) * c[:, None])).T
    return out.real


def central_difference_jacobian(fn, x0: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian of fn at x0."""
    x0 = np.asarray(x0, dtype=float)
    f0 = np.asarray(fn(x0))
    jac = np.zeros((f0.size, x0.size))
    for j in range(x0.size):
        hi, lo = x0.copy(), x0.copy()
        hi[j] += step
        lo[j] -= step
        jac[:, j] = (np.asarray(fn(hi)) - np.asarray(fn(lo))) / (2 * step)
    return jac


def reference_region_csv(rmap) -> bytes:
    """The region CSV of a ``RegionMap``'s columns, one f-string per row."""
    def flags(row):
        return ",".join("true" if f else "false" for f in row)

    lines = ["X,Y,zone,conic1,conic2,conic3,conic4,condA,condB,inA,"
             "semicircle,refined,rho_m_over_omega,rho_M_over_omega"]
    nx = len(rmap.xs)
    for i in range(len(rmap.zone)):
        X, Y = float(rmap.xs[i % nx]), float(rmap.ys[i // nx])
        branch = "na,na,na,na" if rmap.branch is None else flags(rmap.branch[i])
        lines.append(f"{X:.9e},{Y:.9e},Z{int(rmap.zone[i]) + 1},{flags(rmap.conics[i])},"
                     f"{branch},na,{float(rmap.rho_m[i]):.9e},{float(rmap.rho_M[i]):.9e}")
    return ("\n".join(lines) + "\n").encode()
