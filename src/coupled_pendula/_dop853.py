"""Dormand–Prince 8(5,3) over a batch of independent trajectories.

The explicit adaptive Runge–Kutta pair of order 8, with error estimates of
orders 5 and 3 and a 7th-order dense output (Hairer, Nørsett & Wanner,
*Solving Ordinary Differential Equations I*, §II.5), stepped the way
``scipy.integrate.solve_ivp(method="DOP853")`` steps one trajectory: the
same tableau (pinned below from scipy's ``dop853_coefficients.py``),
initial-step rule, error norm, step-size controller and interpolant.  A row
therefore takes the steps and right-hand-side evaluations scipy takes on it
alone, and its samples agree with scipy's to rounding.

The rows advance in lockstep: every pass of the loop makes one step attempt
on each unfinished row, with that row's own time, step size and
accept/reject decision.  The stage sums run as numpy operations over all
rows at once, so their per-call cost is shared; each row's right-hand side
is called on plain floats, where it costs a few microseconds against tens
for numpy on a handful of values.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["Solution", "solve_ivp"]

# Nodes, and the stage weights of the twelve stages, the step's final
# derivative (row 12, the 8th-order weights B) and the three extra stages of
# the dense output (rows 13-15).
C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((16, 16))
A[1, [0]] = [5.26001519587677318785587544488e-2]
A[2, [0, 1]] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
A[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
                   9.24834003261792003115737966543e-1]
A[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
                   1.25467687566822425016691814123e-1]
A[6, [0, 3, 4, 5]] = [3.7109375e-2, 1.70252211019544039314978060272e-1,
                      6.02165389804559606850219397283e-2, -1.7578125e-2]
A[7, [0, 3, 4, 5, 6]] = [3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
                         1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
                         8.27378916381402288758473766002e-3]
A[8, [0, 3, 4, 5, 6, 7]] = [6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
                            -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
                            2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]
A[9, [0, 3, 4, 5, 6, 7, 8]] = [4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
                               -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
                               1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
                               -2.03312017085086261358222928593e-2]
A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [-9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
                                   1.09143734899672957818500254654, -8.14978701074692612513997267357,
                                   -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
                                   2.49360555267965238987089396762, -3.0467644718982195003823669022]
A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
                                       -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
                                       2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
                                       -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
                                       6.43392746015763530355970484046e-1]
A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
                                     1.89151789931450038304281599044, -5.8012039600105847814672114227,
                                     3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
                                     2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2]
A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1,
                                      -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
                                      1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
                                      7.56789766054569976138603589584e-3, -8.298e-3]
A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
                                       5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
                                       -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
                                       -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1]
A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [-4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
                                      7.68342119606259904184240953878, 4.06898981839711007970213554331,
                                      3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
                                      2.9475147891527723389556272149, -9.15095847217987001081870187138]
B = A[12, :12]

# Error weights of the 5th- and 3rd-order estimates, over stages 0-12.
E5 = np.zeros(13)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
                                  -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
                                  -0.3503288487499736816886487290, 0.3341791187130174790297318841,
                                  0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]
E3 = np.zeros(13)
E3[:12] = B
E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                   0.220588235294117647058823529412e-1]
E53 = np.stack([E5, E3])

# Weights of the interpolant's last four coefficients over stages 0-15.
D = np.zeros((4, 16))
D[0, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    -0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
    -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
    0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
    0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
    -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
    -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1]
D[1, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
    0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
    -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
    -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
    0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
    -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2]
D[2, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
    -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
    -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
    -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
    -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
    0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2]
D[3, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    -0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
    -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
    0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
    0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
    -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
    -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3]

# The weight rows as contiguous arrays, which numpy multiplies faster.
_WEIGHTS = [A[s, :s].copy() for s in range(16)]

# Step-size control: the error estimator is of order 7.
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1 / 8
# Evaluations one step attempt may spend: twelve stages, and three more
# for the dense output when the step holds a sample.
ATTEMPT_EVALS = 15
# Accepted steps wait for their dense output until this many samples are
# due, so that the interpolation runs as a few numpy calls on many samples.
SAMPLE_BLOCK = 2048


class Solution(NamedTuple):
    """The sampled rows of a :func:`solve_ivp` batch and what the run cost."""

    t: np.ndarray  # (N, samples) the sample times
    y: np.ndarray  # (N, samples, dim); NaN past the point where a row stopped
    nfev: int  # right-hand-side evaluations over all rows
    status: int  # 0 when every row reached its end, -1 when one stopped early
    t_reached: np.ndarray  # (N,) the last time each row reached
    message: list  # per row: None, or why it stopped


def _eval(funs, times, states) -> list:
    """Each row's right-hand side at its time and state, concatenated."""
    out = []
    for fun, t, y in zip(funs, times, states):
        out += fun(t, y)
    return out


def _columns(rows, dim: int) -> np.ndarray:
    """The entries of the given rows in a flat (rows·dim,) array."""
    return (np.asarray(rows, dtype=int)[:, None] * dim + np.arange(dim)).ravel()


def _rms(v: np.ndarray, dim: int) -> np.ndarray:
    """Root-mean-square of each row's entries of a flat array."""
    return np.sqrt(np.sum((v * v).reshape(-1, dim), axis=1)) / dim ** 0.5


def _initial_step(funs, y, f, t_bound, dim, rtol, atol) -> np.ndarray:
    """Each row's first step size, by scipy's ``select_initial_step``
    (Hairer, Nørsett & Wanner §II.4); costs one evaluation per row."""
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale, dim), _rms(f / scale, dim)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, t_bound)
    f1 = np.array(_eval(funs, h0.tolist(), (y + h0.repeat(dim) * f).reshape(-1, dim).tolist()))
    d2 = _rms((f1 - f) / scale, dim) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.fmax(d1, d2)) ** (1 / 8))
    return np.fmin(np.fmin(100 * h0, h1), t_bound)


def _error_norm(h: float, e5: float, e3: float, dim: int) -> float:
    """scipy's DOP853 error norm of a step of size h, from the sums of
    squares of its scaled 5th- and 3rd-order error estimates."""
    e5, e3 = math.sqrt(e5), math.sqrt(e3)  # scipy squares np.linalg.norm
    e5, e3 = e5 * e5, e3 * e3
    if e5 == 0 and e3 == 0:
        return 0.0
    denom = math.sqrt((e5 + 0.01 * e3) * dim)
    return abs(h) * e5 / denom if denom else math.nan


class _Row:
    """The step control of one row."""

    __slots__ = ("index", "fun", "t", "t_end", "h_abs", "rejected", "nfev", "next_sample")

    def __init__(self, index, fun, t_end, h_abs):
        self.index, self.fun, self.t_end, self.h_abs = index, fun, t_end, h_abs
        self.t, self.rejected, self.next_sample = 0.0, False, 0
        self.nfev = 2  # the derivative at t = 0 and the initial step's probe


class _Dense:
    """Accepted steps that hold samples, waiting for their interpolant.

    A step's dense output needs three more stages.  Those stages and the
    7th-order interpolant run for all waiting steps at once, in numpy
    calls whose cost up to ``SAMPLE_BLOCK`` samples share."""

    def __init__(self, t_eval: np.ndarray, out: np.ndarray):
        self.t_eval, self.out = t_eval, out
        self._clear()

    def _clear(self) -> None:
        self.K, self.y_old, self.y_new, self.steps, self.waiting = [], [], [], [], 0

    def add(self, K, y_old, y_new, steps) -> None:
        """Queue the steps of one pass: their stages (13, cols), their states
        at both ends, and per step (function, t, h, row, first, last), the
        step holding samples ``first:last`` of its row."""
        self.K.append(K)
        self.y_old.append(y_old)
        self.y_new.append(y_new)
        self.steps += steps
        self.waiting += sum(last - first for *_, first, last in steps)
        if self.waiting >= SAMPLE_BLOCK:
            self.flush()

    def flush(self) -> None:
        """Write the samples of every waiting step into ``out``."""
        if not self.steps:
            return
        _, samples, dim = self.out.shape
        funs, t, h, rows, first, last = zip(*self.steps)
        t, h, first = np.array(t), np.array(h), np.array(first)
        K = np.empty((16, len(self.steps) * dim))
        K[:13] = np.concatenate(self.K, axis=1)
        y_old, y_new = np.concatenate(self.y_old), np.concatenate(self.y_new)
        hr = h.repeat(dim)
        times = (t + C[:, None] * h).tolist()
        for s in range(13, 16):
            K[s] = _eval(funs, times[s],
                         (y_old + _WEIGHTS[s].dot(K[:s]) * hr).reshape(-1, dim).tolist())
        delta = y_new - y_old
        F = np.empty((7, len(y_old)))
        F[0] = delta
        F[1] = hr * K[0] - delta
        F[2] = 2 * delta - hr * (K[12] + K[0])
        F[3:] = hr * D.dot(K)

        counts = np.array(last) - first
        step = np.repeat(np.arange(len(counts)), counts)  # of each sample
        at = (np.repeat(np.array(rows) * samples + first - (np.cumsum(counts) - counts), counts)
              + np.arange(len(step)))  # each sample's place in the flat (N·samples,) grid
        x = ((self.t_eval.ravel()[at] - t[step]) / h[step])[:, None]
        v = np.zeros((len(step), dim))
        for i, c in enumerate(F[::-1]):
            v += c.reshape(-1, dim)[step]
            v *= x if i % 2 == 0 else 1 - x
        v += y_old.reshape(-1, dim)[step]
        self.out.reshape(-1, dim)[at] = v
        self._clear()


def solve_ivp(funs, y0: np.ndarray, t_end, samples: int, *,
              rtol: float, atol: float, max_evals: int) -> Solution:
    """Integrate N independent rows y' = funs[i](t, y) from t = 0.

    ``y0`` is (N, dim); row i runs to ``t_end[i]`` and is sampled at
    ``np.linspace(0, t_end[i], samples)`` by the dense output.  Each
    ``funs[i]`` takes a float and a list of ``dim`` floats and returns
    ``dim`` floats.  A row stops early, with a message and the last time
    it reached, when its right-hand side is not finite at t = 0, when its
    step size falls below 10 ulps of t (its state blew up, or the problem
    is too stiff), or before a step attempt that could take its
    evaluations past ``max_evals``.  The other rows run on.
    """
    n, dim = y0.shape
    t_end = [float(te) for te in t_end]
    t_eval = np.array([np.linspace(0.0, te, samples) for te in t_end])
    out = np.full((n, samples, dim), np.nan)
    t_reached, message, nfev = [0.0] * n, [None] * n, 0
    with np.errstate(all="ignore"):  # a row that blows up is rejected, then stopped
        y = np.asarray(y0, dtype=float).ravel()
        f = np.array(_eval(funs, [0.0] * n, y.reshape(n, dim).tolist()))
        live = np.isfinite(f.reshape(n, dim)).all(axis=1).tolist()
        for i in range(n):
            if not live[i]:
                message[i] = "right-hand side is not finite at t=0"
                nfev += 1
        index = [i for i in range(n) if live[i]]
        cols = _columns(index, dim)
        y, f = y[cols], f[cols]
        t_bound = np.array(t_end)[index]
        h_abs = _initial_step([funs[i] for i in index], y, f, t_bound, dim, rtol, atol)
        rows = [_Row(i, funs[i], te, h) for i, te, h in zip(index, t_bound.tolist(),
                                                              h_abs.tolist())]
        dense = _Dense(t_eval, out)

        while rows:
            # scipy's bounds on each row's step size
            t_news, stopped = [], []
            for r in rows:
                min_step = 10 * (math.nextafter(r.t, math.inf) - r.t)
                h_abs = r.h_abs if r.rejected else max(r.h_abs, min_step)
                if h_abs < min_step:
                    message[r.index] = (f"integration stalled at t={r.t:.6g}: "
                                        "step size below 10 ulps of t")
                elif r.nfev + ATTEMPT_EVALS > max_evals:
                    message[r.index] = (f"integration stopped at t={r.t:.6g}: "
                                        f"{max_evals} right-hand-side evaluations spent")
                else:
                    t_news.append(min(r.t + h_abs, r.t_end))
                    continue
                stopped.append(r)
            if stopped:
                for r in stopped:
                    t_reached[r.index] = r.t
                    nfev += r.nfev
                rows, y, f = _without(stopped, rows, y, f, dim)
                continue

            # one step attempt on every row
            funs = [r.fun for r in rows]
            t = np.array([r.t for r in rows])
            h = np.array(t_news) - t
            hr = h.repeat(dim)
            times = (t + C[:13, None] * h).tolist()
            K = np.empty((13, len(y)))
            K[0] = f
            for s in range(1, 12):
                K[s] = _eval(funs, times[s],
                             (y + _WEIGHTS[s].dot(K[:s]) * hr).reshape(-1, dim).tolist())
            y_new = y + hr * B.dot(K[:12])
            K[12] = _eval(funs, times[12], y_new.reshape(-1, dim).tolist())
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = E53.dot(K) / scale
            e5s, e3s = (err * err).reshape(2, -1, dim).sum(axis=2).tolist()

            # scipy's step-size controller on each row
            accepted, sampled, steps, done = [], [], [], []
            for i, (r, h_i, t_new, e5, e3) in enumerate(zip(rows, h.tolist(), t_news, e5s, e3s)):
                r.nfev += 12
                error_norm = _error_norm(h_i, e5, e3, dim)
                if not error_norm < 1:
                    r.h_abs = abs(h_i) * max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                    r.rejected = True
                    continue
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if r.rejected:
                    factor = min(1, factor)
                r.h_abs = abs(h_i) * factor
                r.rejected = False
                accepted.append(i)
                last = int(t_eval[r.index].searchsorted(t_new, side="right"))
                if last > r.next_sample:
                    sampled.append(i)
                    steps.append((r.fun, r.t, h_i, r.index, r.next_sample, last))
                    r.next_sample = last
                    r.nfev += 3
                r.t = t_new
                if t_new >= r.t_end:
                    done.append(r)

            if len(sampled) == len(rows):
                dense.add(K, y, y_new, steps)
            elif sampled:
                cols = _columns(sampled, dim)
                dense.add(K[:, cols], y[cols], y_new[cols], steps)
            if len(accepted) == len(rows):
                y, f = y_new, K[12].copy()
            elif accepted:
                cols = _columns(accepted, dim)
                y, f = y.copy(), f.copy()
                y[cols], f[cols] = y_new[cols], K[12, cols]
            if done:
                for r in done:
                    t_reached[r.index] = r.t
                    nfev += r.nfev
                rows, y, f = _without(done, rows, y, f, dim)
        dense.flush()
    status = -1 if any(m is not None for m in message) else 0
    return Solution(t_eval, out, nfev, status, np.array(t_reached), message)


def _without(gone, rows, y, f, dim):
    """The rows, states and derivatives without the rows in ``gone``."""
    keep = [i for i, r in enumerate(rows) if r not in gone]
    cols = _columns(keep, dim)
    return [rows[i] for i in keep], y[cols], f[cols]
