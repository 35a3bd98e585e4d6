"""Tests for Algorithm 1's weighted hash table."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.hashtable import WeightedHashTable
from repro.util.rng import RandomSource


def table(rates, slots=100, weighting="rate"):
    ids = [f"n{i}" for i in range(len(rates))]
    return WeightedHashTable(ids, rates, slots, chain_weighting=weighting)


# -- reference: one explicit chain list per slot ------------------------------
#
# Algorithm 1's layout taken literally. The interval-indexed table must
# reproduce these lists, the draws made from them, and the probabilities
# summed over them exactly.


def reference_slots(rates, num_slots):
    """Per slot, the chain of (node index, overlap length) pairs.

    ``rates`` are the table's normalised rates.
    """
    slots = [[] for _ in range(num_slots)]
    a = 0.0
    for index, rate in enumerate(rates):
        if rate == 0.0:
            continue
        b = a + rate * num_slots
        first = int(math.floor(a))
        last = min(int(math.ceil(b)), num_slots)
        for j in range(first, last):
            overlap = min(b, j + 1.0) - max(a, float(j))
            if overlap > 1e-12:
                slots[j].append((index, overlap))
        a = b
    for j, chain in enumerate(slots):
        if not chain:
            raise AssertionError(f"hash table slot {j} has an empty chain")
    return slots


def reference_weights(chain, rates, weighting):
    if weighting == "overlap":
        return [overlap for _i, overlap in chain]
    return [rates[i] for i, _overlap in chain]


def reference_place(slots, rates, weighting, rng):
    chain = slots[rng.randrange(len(slots))]
    if len(chain) == 1:
        return chain[0][0]
    weights = reference_weights(chain, rates, weighting)
    omega = sum(weights)
    r1 = rng.random()
    low = 0.0
    for (index, _overlap), weight in zip(chain, weights, strict=True):
        high = low + weight / omega
        if low <= r1 < high:
            return index
        low = high
    return chain[-1][0]


def reference_probabilities(slots, rates, weighting):
    probs = [0.0] * len(rates)
    slot_p = 1.0 / len(slots)
    for chain in slots:
        if len(chain) == 1:
            probs[chain[0][0]] += slot_p
            continue
        weights = reference_weights(chain, rates, weighting)
        omega = sum(weights)
        for (index, _overlap), weight in zip(chain, weights, strict=True):
            probs[index] += slot_p * weight / omega
    return probs


#: Zero rates and positive rates spread log-uniformly down to 1e-12.
rate_values = st.one_of(
    st.just(0.0), st.floats(min_value=-12.0, max_value=0.0).map(lambda e: 10.0**e)
)


class TestConstruction:
    def test_basic(self):
        t = table([1.0, 1.0], slots=10)
        assert t.num_slots == 10
        assert t.rate("n0") == pytest.approx(0.5)
        assert t.expected_blocks("n0") == pytest.approx(5.0)

    def test_rates_normalised(self):
        t = table([2.0, 6.0])
        assert t.rate("n0") == pytest.approx(0.25)
        assert t.rate("n1") == pytest.approx(0.75)

    def test_every_slot_covered(self):
        t = table([1.0, 2.0, 3.0, 0.5], slots=37)
        for slot in range(37):
            assert len(t.chain(slot)) >= 1

    def test_zero_rate_node_gets_no_slots(self):
        t = table([1.0, 0.0, 1.0], slots=20)
        probs = t.selection_probabilities()
        assert probs["n1"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            table([])
        with pytest.raises(ValueError):
            WeightedHashTable(["a"], [1.0, 2.0], 10)
        with pytest.raises(ValueError):
            table([1.0], slots=0)
        with pytest.raises(ValueError):
            table([-1.0, 2.0])
        with pytest.raises(ValueError):
            table([0.0, 0.0])
        with pytest.raises(ValueError):
            table([1.0], weighting="magic")

    def test_from_expected_times(self):
        # Rates must be proportional to 1/E[T].
        t = WeightedHashTable.from_expected_times(["a", "b"], [10.0, 40.0], 100)
        assert t.rate("a") == pytest.approx(0.8)
        assert t.rate("b") == pytest.approx(0.2)
        with pytest.raises(ValueError):
            WeightedHashTable.from_expected_times(["a"], [0.0], 10)

    def test_chain_structure(self):
        # With 2 equal nodes over 10 slots, only the boundary slot at 5 can
        # hold both.
        t = table([1.0, 1.0], slots=10)
        assert t.max_chain_length() <= 2
        assert t.chain(0) == ["n0"]
        assert t.chain(9) == ["n1"]
        # Keys index like a list of slots.
        assert t.chain(-1) == ["n1"]
        with pytest.raises(IndexError):
            t.chain(10)


class TestSelectionProbabilities:
    def test_overlap_weighting_exact(self):
        t = table([3.0, 1.0, 2.0], slots=50, weighting="overlap")
        probs = t.selection_probabilities()
        assert probs["n0"] == pytest.approx(0.5, abs=1e-9)
        assert probs["n1"] == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert probs["n2"] == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_rate_weighting_close(self):
        # The paper-literal chain weighting is approximately proportional.
        t = table([3.0, 1.0, 2.0], slots=60, weighting="rate")
        probs = t.selection_probabilities()
        assert probs["n0"] == pytest.approx(0.5, abs=0.02)

    def test_probabilities_sum_to_one(self):
        t = table([5.0, 1.0, 0.1, 2.2], slots=97)
        assert sum(t.selection_probabilities().values()) == pytest.approx(1.0)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=100)
    def test_overlap_probabilities_proportional(self, rates, slots):
        t = table(rates, slots=slots, weighting="overlap")
        probs = t.selection_probabilities()
        total = sum(rates)
        for i, rate in enumerate(rates):
            assert probs[f"n{i}"] == pytest.approx(rate / total, abs=1e-6)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=100)
    def test_rate_probabilities_sum_to_one(self, rates, slots):
        t = table(rates, slots=slots, weighting="rate")
        assert sum(t.selection_probabilities().values()) == pytest.approx(1.0)


class TestPlacement:
    def test_place_returns_known_nodes(self):
        t = table([1.0, 2.0, 3.0])
        rng = RandomSource(5)
        for _ in range(50):
            assert t.place(rng) in {"n0", "n1", "n2"}

    def test_empirical_distribution_matches(self):
        t = table([1.0, 3.0], slots=200)
        rng = RandomSource(11)
        picks = t.place_many(rng, 8000)
        share = picks.count("n1") / len(picks)
        assert share == pytest.approx(0.75, abs=0.03)

    def test_deterministic_with_seed(self):
        t = table([1.0, 2.0, 5.0])
        a = t.place_many(RandomSource(3), 100)
        b = t.place_many(RandomSource(3), 100)
        assert a == b

    def test_uniform_rates_match_existing_hdfs(self):
        # "logically equivalent to the existing data placement algorithm if
        # all the nodes share the same availability pattern" (Sec III.C).
        t = table([1.0] * 8, slots=80)
        probs = t.selection_probabilities()
        for _node_id, p in probs.items():
            assert p == pytest.approx(1.0 / 8.0, abs=1e-9)

    def test_single_node(self):
        t = table([7.0], slots=5)
        rng = RandomSource(1)
        assert t.place(rng) == "n0"

    def test_more_nodes_than_slots(self):
        # Degenerate: every slot has a long collision chain.
        t = table([1.0] * 20, slots=3)
        rng = RandomSource(2)
        picks = set(t.place_many(rng, 500))
        assert len(picks) > 10  # most nodes reachable through the chains


class TestReferenceOracle:
    """The interval-indexed table against the per-slot reference."""

    @given(
        rates=st.integers(1, 256)
        .flatmap(lambda n: st.lists(rate_values, min_size=n, max_size=n))
        .filter(any),
        # Each power-of-four band up to 25,600 alike; about half the tables
        # have fewer slots than nodes.
        slots=st.sampled_from([1, 4, 16, 64, 256, 1024, 4096, 16_384]).flatmap(
            lambda low: st.integers(low, min(4 * low, 25_600))
        ),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_slot_reference(self, rates, slots, seed):
        for weighting in ("rate", "overlap"):
            t = table(rates, slots=slots, weighting=weighting)
            ref = reference_slots(t._rates, slots)
            assert [t._chain_at(j) for j in range(slots)] == ref
            assert t.max_chain_length() == max(len(chain) for chain in ref)

            rng, ref_rng = RandomSource(seed), RandomSource(seed)
            expected = [
                f"n{reference_place(ref, t._rates, weighting, ref_rng)}"
                for _ in range(300)
            ]
            assert t.place_many(rng, 300) == expected
            assert rng.random() == ref_rng.random()

            ref_probs = reference_probabilities(ref, t._rates, weighting)
            assert t.selection_probabilities() == {
                f"n{i}": p for i, p in enumerate(ref_probs)
            }

    @pytest.mark.parametrize(
        "rates, empty_slot",
        [
            # The intervals end halfway: slots 5-9 belong to no node.
            ([0.25, 0.25], 5),
            # The last interval reaches 1e-13 into slot 9, under the
            # 1e-12 overlap floor.
            ([0.5, 0.4 + 1e-14], 9),
        ],
    )
    def test_empty_chain_guard(self, rates, empty_slot):
        t = table([1.0, 1.0], slots=10)
        t._rates = rates
        message = f"slot {empty_slot} has an empty chain"
        with pytest.raises(AssertionError, match=message):
            t._build_intervals()
        with pytest.raises(AssertionError, match=message):
            reference_slots(rates, 10)

    @given(
        rates=st.lists(rate_values, min_size=1, max_size=32).filter(any),
        slots=st.integers(1, 1024),
        shortfall=st.one_of(
            st.floats(0.0, 3.0),
            # Where the last slot's overlap crosses the 1e-12 floor.
            st.floats(-2e-12, 2e-12).map(lambda d: 1.0 + d),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_empty_chain_guard_matches_reference(self, rates, slots, shortfall):
        # Intervals that end ``shortfall`` slots before the table end: the
        # table raises exactly when, and where, the reference does.
        assume(shortfall < slots)
        t = table(rates, slots=slots)
        t._rates = [r * (slots - shortfall) / slots for r in t._rates]
        try:
            ref = reference_slots(t._rates, slots)
        except AssertionError as exc:
            with pytest.raises(AssertionError, match=f"^{exc}$"):
                t._build_intervals()
        else:
            t._build_intervals()
            assert [t._chain_at(j) for j in range(slots)] == ref
