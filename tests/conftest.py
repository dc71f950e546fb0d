import numpy as np
import pytest
from hypothesis import settings

from momentsynth.lattice import MomentSpec, box

# Property tests draw the same examples on every run, so the suite's verdict
# does not depend on the run; no example database is written.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def random_box_spec(rng, n=None, degree=None, magnitude=10.0, mass_floor=0.5):
    """Arbitrary-valued spec on a random sub-box: positive mass, complex tail.

    Unlike verify.random_instance this does not come from a measure; the
    tail values are free complex numbers of modulus at most `magnitude`.
    """
    n = int(rng.integers(1, 4)) if n is None else n
    degree = int(rng.integers(1, 4)) if degree is None else degree
    idx = box(n, degree)
    keep = [idx[0]] + [k for k in idx[1:] if rng.random() < 0.6]
    vals = [
        magnitude * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        for _ in keep
    ]
    vals[0] = mass_floor + (magnitude - mass_floor) * rng.random()
    return MomentSpec(n, tuple(keep), tuple(vals))


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
