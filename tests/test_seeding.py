import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fond.seeding import rng_for, rng_states, subseed

SEEDS = st.integers(0, 2**32 - 1)
INDICES = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6)


class TestRngStates:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, tag=st.text(max_size=12), indices=INDICES)
    @example(seed=0, tag="dropout", indices=[0, 1, 2**32 - 1])
    @example(seed=2**32 - 1, tag="dropout", indices=[0, 1, 2**32 - 1])
    def test_states_and_draws_equal_rng_for(self, seed, tag, indices):
        gen = np.random.default_rng()
        for k, state in zip(indices, rng_states(seed, tag, indices), strict=True):
            reference = rng_for(seed, tag, k)
            assert state == reference.bit_generator.state
            gen.bit_generator.state = state
            assert gen.random((4, 4)).tobytes() == reference.random((4, 4)).tobytes()

    def test_no_indices_give_no_states(self):
        assert list(rng_states(1, "dropout", range(2, 2))) == []


def test_subseed_takes_only_integer_and_text_parts():
    # a bool is an int to Python, and a float would be truncated
    with pytest.raises(TypeError, match="bool"):
        subseed(True)
    with pytest.raises(TypeError, match="float"):
        subseed(1.5)
