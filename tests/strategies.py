"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from archsearch.search_space import build_space, decode


@st.composite
def architectures(draw, kinds=("alexnet", "condensenet", "macro")):
    """A random architecture of one of the shipped spaces."""
    space = build_space(draw(st.sampled_from(kinds)))
    actions = tuple(draw(st.integers(0, len(slot.candidates) - 1)) for slot in space.slots)
    return decode(space, actions)
