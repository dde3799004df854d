"""Test-only oracles: slow, independent ways to compute what the package
computes, for cross-checks on small inputs."""
from eqsing import linalg


def closure_naive(generators, limit=100000):
    """Order by repeated pairwise products until stable.

    Lists every element as a matrix, a different method from the
    permutation-group order of the definite path, so the two can be
    cross-checked on small groups.
    """
    mats = {linalg.identity(generators[0].rank)}
    mats.update(g.matrix for g in generators)
    while True:
        new = set()
        for a in mats:
            for b in mats:
                p = linalg.mat_mul(a, b)
                if p not in mats:
                    new.add(p)
        if not new:
            return len(mats)
        mats |= new
        if len(mats) > limit:
            raise RuntimeError("naive closure limit exceeded")
