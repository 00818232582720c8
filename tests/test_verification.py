"""The batched parameter draws and the polynomials of the ``verify``
checks.

The ``verify`` golden cannot see a changed draw in the annulus and
Routh-Hurwitz checks, whose lines read the same whatever the draws, so
these tests compare the coefficient rows each check builds and the
generator state it leaves behind: the annulus check against the
one-draw-at-a-time loop in ``oracles``, the Routh-Hurwitz check against
a replay of its documented block draw order.
"""

import dataclasses

import numpy as np
import pytest

from coupled_pendula import PhysicalParams, spectral
from coupled_pendula.verification import (
    check_ek_containment,
    check_factorization,
    check_rh_vs_roots,
    random_params,
    random_params_batch,
)

from oracles import ek_containment_coeffs, factorization_worst, scalar_random_params


def _recording(monkeypatch, kernel):
    """Replace ``spectral.<kernel>`` by a pass-through that keeps a copy
    of each coefficient batch; returns the list of copies."""
    seen = []
    inner = getattr(spectral, kernel)

    def record(coeffs):
        seen.append(np.array(coeffs))
        return inner(coeffs)

    monkeypatch.setattr(spectral, kernel, record)
    return seen


@pytest.mark.parametrize("damped", [True, False])
@pytest.mark.parametrize("identical", [False, True])
def test_batch_draw_matches_scalar_draws(damped, identical):
    kw = dict(damped=damped, identical=identical)
    batch_rng, scalar_rng, single_rng = (np.random.default_rng(42) for _ in range(3))
    rows = random_params_batch(batch_rng, 37, **kw)
    ref = [scalar_random_params(scalar_rng, **kw) for _ in range(37)]
    singles = [random_params(single_rng, **kw) for _ in range(37)]
    assert np.array_equal(rows, [dataclasses.astuple(p) for p in ref])
    assert singles == ref and all(PhysicalParams(*r) == p for r, p in zip(rows, ref))
    next_draws = {rng.random() for rng in (batch_rng, scalar_rng, single_rng)}
    assert len(next_draws) == 1


@pytest.mark.parametrize("seed, n", [(3, 517), (20161, 517), (1, 2000)],
                         ids=["3", "20161", "1-2000"])
@pytest.mark.parametrize("check, kernel, reference", [
    (check_ek_containment, "enestrom_kakeya", ek_containment_coeffs),
])
def test_batched_check_draws_the_scalar_stream(monkeypatch, seed, n, check, kernel, reference):
    # 517 rows: two full blocks of 256 and a short one; 2000 rows: what
    # ``verify`` draws
    seen = _recording(monkeypatch, kernel)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert check(rng, n).ok
    assert [len(c) for c in seen] == [min(256, n - start) for start in range(0, n, 256)]
    assert np.array_equal(np.concatenate(seen), reference(ref_rng, n))
    assert rng.random() == ref_rng.random()


def _replay_rh_draws(rng, n):
    """The parameter-built sextics of ``check_rh_vs_roots`` and the six
    roots of each root-built one, in row order, drawn block by block as
    ``_rh_block`` documents: the root-built rows' (k, 5) real roots and
    pair real parts, their (k,) pair imaginary parts, then the other rows'
    parameter draws."""
    param_rows, roots = [], []
    for start in range(0, n, 256):
        size = min(256, n - start)
        k = (size + 3) // 4  # rows i % 4 == 0; every block starts at a multiple of 4
        real = rng.uniform(-2.0, 0.8, (k, 5))
        pair = real[:, 4:] + 1j * rng.uniform(0.1, 2.0, (k, 1))
        roots.append(np.hstack([real[:, :4], pair, pair.conj()]))
        param_rows.append(spectral.char_poly_general(random_params_batch(rng, size - k)))
    return np.concatenate(param_rows), np.concatenate(roots)


@pytest.mark.parametrize("seed, n", [(3, 517), (20161, 517), (1, 2000)],
                         ids=["3", "20161", "1-2000"])
def test_rh_root_built_rows(monkeypatch, seed, n):
    # 517 rows: two full blocks of 256 and a short one ending on a
    # root-built row; 2000 rows: what ``verify`` draws, 500 of them root-built
    seen = _recording(monkeypatch, "routh_hurwitz")
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert check_rh_vs_roots(rng, n).ok
    assert [len(c) for c in seen] == [min(256, n - start) for start in range(0, n, 256)]
    coeffs = np.concatenate(seen)
    param_rows, roots = _replay_rh_draws(ref_rng, n)
    assert rng.random() == ref_rng.random()
    built = np.arange(n) % 4 == 0
    assert np.array_equal(np.flatnonzero(coeffs[:, 6] == 1.0), np.flatnonzero(built))
    assert np.array_equal(coeffs[~built], param_rows)
    got = spectral.poly_roots(coeffs[built])
    dist = np.abs(got[:, :, None] - roots[:, None, :])
    assert dist.min(axis=1).max() <= 1e-9 and dist.min(axis=2).max() <= 1e-9
    stable = np.all(roots.real < 0, axis=1)
    assert 0 < np.count_nonzero(stable) < len(roots)
    assert np.array_equal(spectral.routh_hurwitz(coeffs[built]).stable, stable)


@pytest.mark.parametrize("seed", [3, 20161])
def test_batched_factorization_matches_one_draw_at_a_time(seed):
    # np.polymul's BLAS dot may fuse the multiply-add of the λ¹ coefficient
    # that the batch rounds twice; the worst coefficient lies elsewhere
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    result = check_factorization(rng, 517)
    assert result.ok and result.worst == factorization_worst(ref_rng, 517)
    assert rng.random() == ref_rng.random()
