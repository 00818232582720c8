"""Independent oracles used by the test suite only.

These deliberately avoid the production code paths they check: a second
root finder (Aberth-Ehrlich), the one-polynomial-at-a-time root finder
that the batched ``poly_roots`` must reproduce bit for bit, a generic
Routh table, the degree-6 chain one polynomial at a time with an early
return at the first zero pivot, congruence products by plain matrix multiplication,
eigendecomposition propagation of the linear system, a tight
mass-matrix trajectory for the nonlinear integrator, a per-row
f-string region CSV writer, on one unblocked kernel call, that the
streamed writer must match byte for byte, the verdict columns of a region
map's blocks, every quadrant verdict from its definition on a quartic written
out by hand, the one-draw-at-a-time polynomial loops whose generator
stream and coefficient rows the batched annulus and factorization
checks must reproduce, the generalized damping force Φ behind the energy-rate
identity dE/dt = q̇·Φ, and the inertia and stiffness matrices of the
frictionless linearization.  ``param_rows`` turns parameter sets into
the (n, 10) rows that the spectral functions take.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from coupled_pendula import (
    DampingModel,
    PhysicalParams,
    SystemState,
    accel_q,
    char_poly_general,
    char_poly_identical,
    derived_constants,
)
from coupled_pendula.regions import _verdicts


def param_rows(*params: PhysicalParams) -> np.ndarray:
    """The (n, 10) parameter rows, in field order, of n parameter sets."""
    return np.array([dataclasses.astuple(p) for p in params])


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


def scalar_routh_chain(asc) -> tuple[np.ndarray, bool]:
    """(chain, degenerate) of the degree-6 Routh-Hurwitz chain for one
    ascending coefficient row, stopping at the first zero pivot; the
    entries from the first one that pivot leaves undefined are NaN."""
    a0, a1, a2, a3, a4, a5, a6 = (float(v) for v in asc)
    scale = max(abs(float(v)) for v in asc)
    tiny = 1e-13
    chain = np.full(7, np.nan)
    chain[0], chain[1], chain[6] = a6, a5, a0
    if abs(a5) <= tiny * scale:
        return chain, True
    b1 = a4 * a5 - a3 * a6
    b2 = a2 * a5 - a1 * a6
    if abs(b1) <= tiny * (abs(a4 * a5) + abs(a3 * a6)):
        return chain, True
    chain[2] = b1 / a5
    d1 = a3 - a5 * b2 / b1
    chain[3] = d1
    den = a3 * b1 - a5 * b2
    if abs(den) <= tiny * (abs(a3 * b1) + abs(a5 * b2)):
        return chain, True
    tail = b1 * (a1 * b1 - a0 * (a5 * a5)) / den
    e1 = (b2 - tail) / a5
    chain[4] = e1
    if abs(e1) <= tiny * (abs(b2) + abs(tail)) / abs(a5):
        return chain, True
    chain[5] = a1 - a0 * (a5 * a5) / b1 - a0 * d1 / e1
    return chain, False


def congruence(transform: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Plain-product congruence Tᵀ M T."""
    return transform.T @ mat @ transform


def propagate_linear(system: np.ndarray, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exact evolution of ẏ = J y via eigendecomposition; shape (len(t), n)."""
    vals, vecs = np.linalg.eig(system)
    c = np.linalg.solve(vecs, y0.astype(complex))
    out = (vecs @ (np.exp(np.outer(vals, times)) * c[:, None])).T
    return out.real


def reference_trajectory(state0: SystemState, p: PhysicalParams, model,
                         times: np.ndarray) -> np.ndarray:
    """y-form states at ``times`` integrated through the mass-matrix path
    (``accel_q``) by scipy's DOP853 at rtol 1e-12, atol 1e-14."""
    from scipy.integrate import solve_ivp

    def rhs(t, q):
        return np.concatenate([q[3:], accel_q(SystemState.from_q(*q), p, model)])

    sol = solve_ivp(rhs, (times[0], times[-1]), state0.to_q().as_vector(),
                    method="DOP853", rtol=1e-12, atol=1e-14, t_eval=times)
    if sol.status != 0:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    x, t1, t2, xd, t1d, t2d = sol.y
    return np.column_stack([x, t1 + t2, t1 - t2, xd, t1d + t2d, t1d - t2d])


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


def map_columns(rmap) -> dict:
    """The verdict columns of a ``RegionMap``: its blocks' kernel columns,
    concatenated (``branch`` None when η > 1)."""
    parts = [v for _, _, v in rmap.blocks()]
    return {k: None if parts[0][k] is None else np.concatenate([v[k] for v in parts])
            for k in parts[0]}


def reference_region_csv(rmap) -> bytes:
    """The region CSV of a ``RegionMap``'s grid from one kernel call on every
    node, one f-string per row."""
    def flags(row):
        return ",".join("true" if f else "false" for f in row)

    lines = ["X,Y,zone,conic1,conic2,conic3,conic4,condA,condB,inA,"
             "semicircle,refined,rho_m_over_omega,rho_M_over_omega"]
    nx, ny = len(rmap.xs), len(rmap.ys)
    v = _verdicts(np.tile(rmap.xs, ny), np.repeat(rmap.ys, nx), rmap.eta, rmap.mu)
    for i in range(nx * ny):
        X, Y = float(rmap.xs[i % nx]), float(rmap.ys[i // nx])
        branch = "na,na,na,na" if v["branch"] is None else flags(v["branch"][i])
        lines.append(f"{X:.9e},{Y:.9e},Z{int(v['zone'][i]) + 1},{flags(v['conics'][i])},"
                     f"{branch},na,{float(v['rho_m'][i]):.9e},{float(v['rho_M'][i]):.9e}")
    return ("\n".join(lines) + "\n").encode()


def _less(u, v):
    """(u < v, |v − u| / max(u, v)) on positive columns: a comparison and
    its relative gap (for finite floats, v − u > 0 exactly when u < v)."""
    d = v - u
    return d > 0, np.abs(d) / np.maximum(u, v)


def quadrant_oracle(X, Y, eta, mu) -> tuple[dict, dict]:
    """Every quadrant verdict from its definition, on broadcast columns.

    The x/σ quartic at ω = 1 is written out here: a0 = Y,
    a1 = X + ηY + 2μη, a2 = ηX + Y + 1, a3 = X + (1−2μ)η, a4 = 1 − 2μ,
    with ratios r_j = a_j/a_{j+1} (``ratios``, shape (4, n)).  ρm and ρM
    are the least and greatest of the four.  The zone is Z1 when r0
    attains ρm and r2 attains ρM, plus 2 when r0 does not and 1 when r2
    does not, so ties go to the lower index.  condA is η < 2r0,
    condB η < 2r1, inA η < 2ρm, semicircle 1 < ρM, and the conics are
    r0 < r1, r0 < r3, r1 < r2, r2 < r3.

    Returns (verdicts, gaps): ``gaps`` holds, for each decided verdict,
    the relative gap of the comparison that decides it, so that a test
    can set aside the draws within rounding of a boundary.
    """
    X, Y, eta, mu = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (X, Y, eta, mu)))
    a = (Y, X + eta * Y + 2.0 * mu * eta, eta * X + Y + 1.0, X + (1.0 - 2.0 * mu) * eta,
         1.0 - 2.0 * mu)
    r = [a[j] / a[j + 1] for j in range(4)]
    ratios = np.stack(r)
    verdicts = {"ratios": ratios, "rho_m": ratios.min(axis=0), "rho_M": ratios.max(axis=0)}
    gaps = {}
    for name, (u, v) in {"cond_a": (eta, 2.0 * r[0]), "cond_b": (eta, 2.0 * r[1]),
                         "in_a": (eta, 2.0 * verdicts["rho_m"]),
                         "semicircle": (1.0, verdicts["rho_M"])}.items():
        verdicts[name], gaps[name] = _less(u, v)
    conics = [_less(r[i], r[j]) for i, j in ((0, 1), (0, 3), (1, 2), (2, 3))]
    verdicts["conics"], gaps["conics"] = (np.stack(c, axis=-1) for c in zip(*conics))
    verdicts["zone"] = 2 * (r[0] != verdicts["rho_m"]) + (r[2] != verdicts["rho_M"])
    gaps["zone"] = np.minimum(conics[0][1], conics[3][1])
    return verdicts, gaps


def scalar_random_params(rng: np.random.Generator, *, damped: bool = True,
                         identical: bool = False) -> PhysicalParams:
    """One random parameter draw, one generator call per value or pair."""
    m0 = rng.uniform(0.2, 4.0)
    if identical:
        m1 = m2 = rng.uniform(0.1, 2.0)
        l1 = l2 = rng.uniform(0.3, 2.5)
        b1 = b2 = rng.uniform(0.02, 1.0) if damped else 0.0
    else:
        m1, m2 = rng.uniform(0.1, 2.0, 2)
        l1, l2 = rng.uniform(0.3, 2.5, 2)
        b1, b2 = rng.uniform(0.02, 1.0, 2) if damped else (0.0, 0.0)
    b0 = rng.uniform(0.02, 2.0) if damped else 0.0
    k = rng.uniform(0.5, 40.0)
    return PhysicalParams(m0=m0, m1=m1, m2=m2, l1=l1, l2=l2,
                          beta0=b0, beta1=b1, beta2=b2, k=k)


def ek_containment_coeffs(rng: np.random.Generator, n: int) -> np.ndarray:
    """The n sextics of ``check_ek_containment``, built one draw at a time."""
    return char_poly_general(param_rows(*(scalar_random_params(rng) for _ in range(n))))


def factorization_worst(rng: np.random.Generator, n: int) -> float:
    """The worst relative coefficient error of ``check_factorization``,
    one identical-pendula draw and one ``np.polymul`` at a time."""
    worst = 0.0
    for _ in range(n):
        row = param_rows(scalar_random_params(rng, identical=True))
        [quad], [quart] = char_poly_identical(row)
        prod = np.polymul(quart[::-1], quad[::-1])[::-1]
        [ref] = char_poly_general(row)
        worst = max(worst, float(np.max(np.abs(prod - ref) / np.abs(ref))))
    return worst


def generalized_damping(state: SystemState, p: PhysicalParams,
                        model: DampingModel = DampingModel.FULL_VELOCITY) -> np.ndarray:
    """Generalized friction force Φ on (x, θ1, θ2) for the given model."""
    q = state.to_q()
    _, t1, t2 = q.coords
    xd, t1d, t2d = q.vels
    c1, c2 = np.cos(t1), np.cos(t2)
    fx_common = -p.beta1 * p.l1 * t1d * c1 - p.beta2 * p.l2 * t2d * c2
    if model is DampingModel.FULL_VELOCITY:
        beta = p.beta0 + p.beta1 + p.beta2
        return np.array([
            -beta * xd + fx_common,
            -p.beta1 * p.l1 * (xd * c1 + p.l1 * t1d),
            -p.beta2 * p.l2 * (xd * c2 + p.l2 * t2d),
        ])
    return np.array([
        -p.beta0 * xd + fx_common,
        -p.beta1 * p.l1**2 * t1d,
        -p.beta2 * p.l2**2 * t2d,
    ])


def linearize_frictionless(p: PhysicalParams) -> tuple[np.ndarray, np.ndarray]:
    """(a1, v1): inertia and stiffness matrices of the linearized y-form
    system A1 ÿ + V1 y = 0, entry by entry from the derived constants."""
    d = derived_constants(p)
    a1 = np.array([
        [p.m, d.bm_plus, d.bm_minus],
        [d.bm_plus, d.am_plus, d.am_minus],
        [d.bm_minus, d.am_minus, d.am_plus],
    ])
    hg = 0.5 * p.g
    v1 = np.array([
        [p.k, 0.0, 0.0],
        [0.0, d.bm_plus * hg, d.bm_minus * hg],
        [0.0, d.bm_minus * hg, d.bm_plus * hg],
    ])
    return a1, v1
