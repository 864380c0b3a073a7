"""The sampler's pure-Python Philox4x64-10 stream against numpy's.

numpy is a test-only dependency here: it is the independent reference
implementation of the same generator.
"""

import math

import numpy as np
import pytest

from qsix.errors import DomainError
from qsix.sampler import _draw_complex, _rng

#: (seed, index) keys: small, large, negative (masked to 64 bits) and
#: word-boundary values
KEYS = [(seed, index) for seed in (0, 1, 7, 913, 2**63, 2**64 - 1, -1,
                                   -12345, 3505430215, 2**40 + 17)
        for index in range(200)]
#: (lo, hi) pairs of the sampler's draws: log-modulus ranges and phase
RANGES = [(math.log(0.25), math.log(0.7)), (math.log(0.1), math.log(3.0)),
          (0.0, 2.0 * math.pi), (math.log(0.3), math.log(2.5)), (0.0, 1.0),
          (math.log(1.5), math.log(3.0)), (-1.0, 1.0), (5.0, 5.5),
          (math.log(0.05), math.log(0.9))]


def _numpy_rng(seed, index):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _numpy_draw_complex(rng, lo, hi):
    """The sampler's draw as written with numpy's ufuncs."""
    mod = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    return complex(mod * np.cos(phase), mod * np.sin(phase))


def test_uniform_is_bit_identical_to_numpy():
    assert len(KEYS) >= 2000
    for seed, index in KEYS:
        ours, ref = _rng(seed, index), _numpy_rng(seed, index)
        for lo, hi in RANGES:
            assert ours.uniform(lo, hi) == ref.uniform(lo, hi), \
                (seed, index, lo, hi)


def test_raw_words_match_numpy_across_blocks():
    for seed, index in KEYS[::97]:
        bits = np.random.Philox(key=np.array(
            [seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64))
        ours = _rng(seed, index)
        assert [ours.raw() for _ in range(13)] == \
            [int(w) for w in bits.random_raw(13)]


def test_draw_complex_is_within_four_ulps_of_numpy():
    tol = 4 * 2.0 ** -52
    worst = 0.0
    for seed, index in KEYS:
        ours, ref = _rng(seed, index), _numpy_rng(seed, index)
        for lo, hi in ((0.25, 0.7), (0.1, 3.0), (0.3, 2.5)):
            a = _draw_complex(ours, lo, hi)
            b = _numpy_draw_complex(ref, lo, hi)
            worst = max(worst, abs(a - b) / abs(b))
    assert worst <= tol


def test_integers_stay_in_range_and_cover_it():
    seen = set()
    for index in range(500):
        g = _rng(7, index)
        for _ in range(4):
            k = g.integers(0, 21)
            assert type(k) is int and 0 <= k < 21
            seen.add(k)
    assert seen == set(range(21))


def test_integers_rejects_words_past_the_last_full_multiple():
    # n = 3 * 2^62: the top quarter of the words is redrawn. Folded in by
    # a plain modulus it would double the weight of [0, 2^62), a third of
    # the range, to one half
    n = 3 * 2**62
    ks = [_rng(1, index).integers(-3, n - 3) for index in range(600)]
    assert all(-3 <= k < n - 3 for k in ks)
    low = sum(k < 2**62 - 3 for k in ks) / len(ks)
    assert 0.28 < low < 0.39


def test_integers_needs_a_nonempty_range():
    with pytest.raises(DomainError):
        _rng(0, 0).integers(5, 5)


@pytest.mark.parametrize("draw", [lambda g: g.integers(0, 21),
                                  lambda g: g.normal()],
                         ids=["integers", "normal"])
def test_draws_are_deterministic_per_key(draw):
    for seed, index in KEYS[::41]:
        a, b = _rng(seed, index), _rng(seed, index)
        assert [draw(a) for _ in range(6)] == [draw(b) for _ in range(6)]
    assert [draw(_rng(7, 0)) for _ in range(6)] != \
        [draw(_rng(7, 1)) for _ in range(6)]


def test_normal_moments():
    xs = [g.normal() for g in (_rng(11, i) for i in range(4000))
          for _ in range(2)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
    assert abs(mean) < 0.05
    assert abs(var - 1.0) < 0.05
    assert all(math.isfinite(x) for x in xs)
