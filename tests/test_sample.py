"""util.sample, the one seeded draw behind query samples, pool fills,
positives and negative groups: random.Random(seed).sample when the
population holds n, else the whole population flagged as a shortfall."""

import random

from hypothesis import given
from hypothesis import strategies as st

from citebench.util import Selection, sample

POPULATIONS = st.one_of(
    st.lists(st.text(max_size=3), unique=True, max_size=30),
    st.builds(range, st.integers(-5, 5), st.integers(-5, 40)),
)
SEEDS = st.integers(0, 2 ** 64 - 1)  # derive_seed's range


@given(POPULATIONS, st.data(), SEEDS)
def test_a_draw_equals_random_sample(population, data, seed):
    for n in {0, data.draw(st.integers(0, len(population)), label="n"), len(population)}:
        got = sample(population, n, seed)
        assert got == Selection(random.Random(seed).sample(population, n), False)
        assert type(got.ids) is list


@given(POPULATIONS, st.integers(1, 5), SEEDS)
def test_a_short_population_is_drawn_whole(population, missing, seed):
    got = sample(population, len(population) + missing, seed)
    assert got == Selection(list(population), True)
    assert type(got.ids) is list
