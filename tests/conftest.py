import time

import pytest
from hypothesis import HealthCheck, settings

from selfsim.hecke import assemble_level, delta_element, generator_sum_element
from selfsim.spectra import sym_eigs

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def delta_levels():
    """Eigenvalues of the quarter-sum element for n = 1..13 and the n=13 solve time.

    The n=13 band solve (dimension 8192) is the largest of the suite;
    computing it once here lets several acceptance criteria share the result.
    """
    eigs = {}
    t13 = 0.0
    for n in range(1, 14):
        matrix = assemble_level(delta_element(), n)
        start = time.perf_counter()
        eigs[n] = sym_eigs(matrix).eigenvalues
        elapsed = time.perf_counter() - start
        if n == 13:
            t13 = elapsed
    return eigs, t13


@pytest.fixture(scope="session")
def sum13_eigs():
    matrix = assemble_level(generator_sum_element(), 13)
    return sym_eigs(matrix).eigenvalues
