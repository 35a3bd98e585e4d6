"""Tests for deterministic random-stream management."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import RandomSource, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_differs_by_key(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_differs_by_root(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_key_path_not_flattened(self):
        # ("ab",) and ("a", "b") must not collide.
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")

    def test_64_bit_range(self):
        seed = derive_seed(123, "x")
        assert 0 <= seed < 2**64

    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
    @settings(max_examples=50)
    def test_always_in_range(self, root, key):
        assert 0 <= derive_seed(root, key) < 2**64


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(7)
        b = RandomSource(7)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = RandomSource(7)
        b = RandomSource(8)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_substreams_are_independent_of_consumption(self):
        # Consuming the parent must not perturb a keyed substream.
        a = RandomSource(7)
        sub_before = a.substream("child").random()
        b = RandomSource(7)
        for _ in range(100):
            b.random()
        sub_after = b.substream("child").random()
        assert sub_before == sub_after

    def test_substream_keys_distinguish(self):
        root = RandomSource(7)
        assert root.substream("x").random() != root.substream("y").random()

    def test_nested_substreams(self):
        root = RandomSource(7)
        direct = root.substream("a", "b").random()
        nested = root.substream("a").substream("b").random()
        assert direct == nested

    def test_randrange_bounds(self):
        src = RandomSource(1)
        values = {src.randrange(5) for _ in range(200)}
        assert values == {0, 1, 2, 3, 4}

    def test_expovariate_positive(self):
        src = RandomSource(1)
        assert all(src.expovariate(0.5) > 0 for _ in range(100))

    def test_shuffle_is_permutation(self):
        src = RandomSource(9)
        items = list(range(20))
        shuffled = list(items)
        src.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_sample_distinct(self):
        src = RandomSource(9)
        picked = src.sample(list(range(10)), 5)
        assert len(set(picked)) == 5

    def test_repr_mentions_seed(self):
        assert "123" in repr(RandomSource(123))
