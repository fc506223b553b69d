import numpy as np
import pytest

from dirspaces import AlphaMeasure, DensityMeasure, SampledDensityMeasure, symbol

# Non-translation admissible symbols used across the diagnostic tests.
GALLERY = [
    symbol(2, {}),
    symbol(1, {1: 1.0}),
    symbol(1, {1: 1.0, 2: 0.5}),
    symbol(3, {1: 1j}),
    symbol(1, {1: 0.5, 4: 0.25}),
    symbol(2, {1: 1.0}),
]

VERTICAL_TAUS = [0.0, 1.0, -1.0, 10.0, -10.0]


def exp3_density(sigma):
    """h(sigma) = 3 e^{-3 sigma}: a probability density not in the Gamma family
    parameterization used elsewhere; w(n) = 3/(3 + 2 log n) in closed form."""
    return 3.0 * np.exp(-3.0 * np.asarray(sigma, dtype=np.float64))


@pytest.fixture(scope="session")
def alpha0():
    return AlphaMeasure(0.0)


@pytest.fixture(scope="session")
def alpha1():
    return AlphaMeasure(1.0)


@pytest.fixture(scope="session")
def custom_density():
    return DensityMeasure(h=exp3_density)


# Zero on [0, 1/2], then a triangle of height 2 on [1/2, 3/2]: a sampled
# density supported on an interval.
BUMP_SAMPLES = [[0.0, 0.0], [0.5, 0.0], [1.0, 2.0], [1.5, 0.0]]


@pytest.fixture(scope="session")
def sampled_density():
    return SampledDensityMeasure(samples=BUMP_SAMPLES)


@pytest.fixture(scope="session")
def gallery():
    return list(GALLERY)


def random_polynomial(rng, N, max_degree=None, density=0.5):
    """Random exact polynomial with complex coefficients in the unit box."""
    from dirspaces import from_terms

    max_degree = max_degree or N
    terms = {1: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))}
    for n in range(2, max_degree + 1):
        if rng.random() < density:
            terms[n] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return from_terms(terms, N)
