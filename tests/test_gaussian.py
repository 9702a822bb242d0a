import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

from ssbelab.gaussian import GaussianStream, derive_substream


def test_same_seed_same_sequence():
    a = derive_substream(1234, 5, 4)
    b = derive_substream(1234, 5, 4)
    va = np.vstack([a.next_vector() for _ in range(100)])
    vb = np.vstack([b.next_vector() for _ in range(100)])
    assert (va == vb).all()


def test_distinct_path_index_differs():
    a = derive_substream(99, 0, 2).next_vector()
    b = derive_substream(99, 1, 2).next_vector()
    assert not np.array_equal(a, b)


def test_block_draws_match_stepwise():
    a = derive_substream(7, 3, 2)
    b = derive_substream(7, 3, 2)
    block = a.draw_block(257)
    step = np.vstack([b.next_vector() for _ in range(257)])
    assert (block == step).all()
    assert a.position == b.position == 258


def test_block_draw_into_a_view_returns_the_view():
    # The lockstep engine draws each path into its column of one block, and
    # perfbench counts the deviates of the array returned.
    block = np.zeros((257, 3, 2))
    view = block[:, 1]
    assert derive_substream(7, 3, 2).draw_block(257, out=view) is view
    assert (block[:, 1] == derive_substream(7, 3, 2).draw_block(257)).all()
    assert not block[:, 0].any() and not block[:, 2].any()


def test_position_is_one_based():
    s = derive_substream(0, 0, 1)
    assert s.position == 1
    s.next_vector()
    assert s.position == 2


def test_position_is_not_a_constructor_argument():
    # A stream always starts at xi(1); a position passed in would misreport what it draws.
    with pytest.raises(TypeError):
        GaussianStream(0, 0, 1, position=5)
    s = GaussianStream(0, 0, 1)
    assert s.position == 1
    assert (s.next_vector() == derive_substream(0, 0, 1).next_vector()).all()


def test_no_key_collisions_over_grid():
    # Distinct path indices must map to distinct generator keys; pairwise
    # distinctness over the 1e4 x 1e4 grid is uniqueness of 1e4 keys.
    keys = {
        tuple(np.random.SeedSequence([2024, k]).generate_state(4)) for k in range(10_000)
    }
    assert len(keys) == 10_000


def test_moments_at_seed_42():
    s = derive_substream(42, 0, 1)
    draws = s.draw_block(1_000_000)[:, 0]
    assert -0.01 < draws.mean() < 0.01
    assert 0.99 < draws.var() < 1.01


def test_vector_norm_mean():
    s = derive_substream(42, 1, 3)
    draws = s.draw_block(100_000)
    mean_sq = float((draws**2).sum(axis=1).mean())
    assert abs(mean_sq - 3.0) < 0.06


def test_kolmogorov_smirnov_against_normal():
    s = derive_substream(1729, 0, 1)
    draws = s.draw_block(100_000)[:, 0]
    result = kstest(draws, "norm")
    assert result.pvalue > 0.01


def test_argument_validation():
    with pytest.raises(ValueError):
        GaussianStream(master_seed=-1, path_index=0, r=1)
    with pytest.raises(ValueError):
        GaussianStream(master_seed=2**64, path_index=0, r=1)
    with pytest.raises(ValueError):
        GaussianStream(master_seed=0, path_index=-1, r=1)
    with pytest.raises(ValueError):
        GaussianStream(master_seed=0, path_index=0, r=0)


class _ReferenceStream:
    """The transform as first written: ``Generator.integers`` and ``(k + 0.5) / 2**53``."""

    def __init__(self, master_seed, path_index, r):
        seq = np.random.SeedSequence([master_seed, path_index])
        self.rng, self.r = np.random.Generator(np.random.Philox(seed=seq)), r

    def draw(self, count):
        k = self.rng.integers(1 << 53, size=(count, self.r), dtype=np.uint64)
        return ndtri((k.astype(np.float64) + 0.5) / float(1 << 53))


def _words(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_draws_equal_the_reference_transform_bit_for_bit(r):
    # Blocks of every size, interleaved with single vectors, and drawn into a
    # strided column of a (count, m, r) block as the lockstep engine draws.
    for path_index in range(3):
        s, ref = derive_substream(42, path_index, r), _ReferenceStream(42, path_index, r)
        for count in (0, 1, 17, 4096, 5000):
            assert (_words(s.draw_block(count)) == _words(ref.draw(count))).all()
            assert (_words(s.next_vector()) == _words(ref.draw(1)[0])).all()
            block = np.full((count, 3, r), 7.0)
            view = block[:, 1]
            assert s.draw_block(count, out=view) is view
            assert (_words(view) == _words(ref.draw(count))).all()
            assert (block[:, [0, 2]] == 7.0).all()
        assert s.position == 1 + 2 * (0 + 1 + 17 + 4096 + 5000) + 5


class _StubBits:
    """A bit source that hands out the given raw 64-bit words in order."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, size):
        out, self.words = self.words[:size].copy(), self.words[size:]
        return out


@pytest.mark.parametrize("low_bits", [0, 0x7FF])
def test_the_edges_of_the_noise_grid(low_bits):
    # k is the top 53 bits of a raw word, so the low 11 bits change nothing.
    # Above 2**52, k + 0.5 rounds to an even integer: 2**52 + 1 and 2**52 + 2
    # share a deviate, and k = 2**53 - 1 reaches u = 1.0 and +inf.
    ks = [0, 2**52 - 1, 2**52, 2**52 + 1, 2**52 + 2, 2**53 - 2, 2**53 - 1]
    s = GaussianStream(0, 0, 1)
    s._bits = _StubBits([k << 11 | low_bits for k in ks])
    x = s.draw_block(len(ks))[:, 0].tolist()
    assert x == [-8.292361075813597, -1.3914582123358836e-16, 0.0, 5.565832849343534e-16,
                 5.565832849343534e-16, 8.125890664701908, np.inf]
    assert x[0] == ndtri(2.0**-54) and x[-1] == ndtri(1.0)
    assert s.position == len(ks) + 1
