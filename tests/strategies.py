"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from archsearch.search_space import build_space, decode


@st.composite
def action_sequences(draw, kinds=("alexnet", "condensenet", "macro")):
    """(space, a valid action sequence of it) for one of the shipped spaces."""
    space = build_space(draw(st.sampled_from(kinds)))
    return space, tuple(draw(st.integers(0, n - 1)) for n in space.arities)


def architectures(kinds=("alexnet", "condensenet", "macro")):
    """A random architecture of one of the shipped spaces."""
    return action_sequences(kinds).map(lambda drawn: decode(*drawn))
