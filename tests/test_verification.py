"""The batched parameter draws and ``verify`` polynomial blocks against
the one-draw-at-a-time loops in ``oracles``.

The ``verify`` golden cannot see a changed draw in the annulus and
Routh-Hurwitz checks, whose lines read the same whatever the draws, so
these tests compare the coefficient rows each check builds and the
generator state it leaves behind.
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

from oracles import (
    ek_containment_coeffs,
    factorization_worst,
    rh_vs_roots_coeffs,
    scalar_random_params,
)


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


@pytest.mark.parametrize("seed", [3, 20161])
@pytest.mark.parametrize("check, kernel, reference", [
    (check_ek_containment, "enestrom_kakeya", ek_containment_coeffs),
    (check_rh_vs_roots, "routh_hurwitz", rh_vs_roots_coeffs),
])
def test_batched_check_draws_the_scalar_stream(monkeypatch, seed, check, kernel, reference):
    # 517 rows: two full blocks of 256 and a short one ending on a
    # root-built row of the Routh-Hurwitz pattern
    n = 517
    seen = []
    inner = getattr(spectral, kernel)

    def record(coeffs):
        seen.append(np.array(coeffs))
        return inner(coeffs)

    monkeypatch.setattr(spectral, kernel, record)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert check(rng, n).ok
    assert [len(c) for c in seen] == [256, 256, 5]
    assert np.array_equal(np.concatenate(seen), reference(ref_rng, n))
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("seed", [3, 20161])
def test_batched_factorization_matches_one_draw_at_a_time(seed):
    # np.polymul's BLAS dot may fuse the multiply-add of the λ¹ coefficient
    # that the batch rounds twice; the worst coefficient lies elsewhere
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    result = check_factorization(rng, 517)
    assert result.ok and result.worst == factorization_worst(ref_rng, 517)
    assert rng.random() == ref_rng.random()
