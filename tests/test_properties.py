"""Property test: reflections in random integral roots on random integral
forms end in a checked verdict or a typed error, never a traceback."""
from hypothesis import given, settings, strategies as st

from eqsing.errors import EqsingError, InternalError
from eqsing.monodromy import generate_group, pl_reflection
from oracles import closure_naive


@st.composite
def reflection_groups(draw):
    """(gram, roots): a symmetric n x n form with even diagonal, 1 <= n <= 4,
    and 1 to 4 roots with small entries."""
    n = draw(st.integers(1, 4))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = draw(st.sampled_from((-4, -2, 2, 4)))
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-2, 2))
    vector = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
    roots = draw(st.lists(vector, min_size=1, max_size=4))
    return gram, roots


@settings(derandomize=True, deadline=None, max_examples=600)
@given(reflection_groups())
def test_random_reflection_groups_end_in_a_checked_verdict(case):
    gram, roots = case
    try:
        gens = [pl_reflection(gram, r, name=f"h{i + 1}") for i, r in enumerate(roots)]
        verdict = generate_group(gens, cap=400)
    except EqsingError as exc:
        # a typed refusal of the input, not a failed invariant
        assert not isinstance(exc, InternalError), exc
        return
    if verdict.kind == "infinite":
        assert verdict.validate()
    elif verdict.kind == "finite" and verdict.order <= 200:
        assert verdict.order == closure_naive(gens)
