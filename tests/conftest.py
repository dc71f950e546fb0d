import numpy as np
import pytest

from momentsynth.lattice import MomentSpec, box

# the share of draws that land on each end of a `bounded` range
ENDS = 0.05


def bounded(rng, low, high):
    """A float in [low, high]: each end with probability ENDS, uniform
    otherwise, so that every sweep of a property test reaches the extremes."""
    u = rng.random()
    if u < ENDS:
        return low
    if u < 2 * ENDS:
        return high
    return rng.uniform(low, high)


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


def extended_residual(spec, measure):
    """max |moment - prescribed|, with the measure's moments summed in
    extended precision here rather than by the package's own verifier."""
    atoms = np.asarray(measure.atoms).astype(np.clongdouble)
    weights = np.asarray(measure.weights).astype(np.longdouble)
    worst = 0.0
    for k, value in zip(spec.indices, spec.values):
        mono = np.ones(len(weights), dtype=np.clongdouble)
        for j, e in enumerate(k):
            mono *= atoms[:, j] ** e
        worst = max(worst, float(abs(mono @ weights - np.clongdouble(value))))
    return worst


def extended_relative_residual(spec, measure):
    """extended_residual over max(1, max |prescribed|)."""
    return extended_residual(spec, measure) / max(1.0, max(abs(v) for v in spec.values))


def power_image(ops, k):
    """T^k c for k >= 0, with T_j = matrices[j] / scale and c the cyclic vector."""
    vec = ops.cyclic
    for matrix, power in zip(ops.matrices, k):
        for _ in range(int(power)):
            vec = matrix @ vec / ops.scale
    return vec


def apply_power(ops, k):
    """The power value vdot(T^(k-) c, T^(k+) c) at a signed index k, with
    k+ = max(k, 0) and k- = max(-k, 0): the matrix-path reference for the
    closed-form Fourier table."""
    k = np.asarray(k)
    minus, plus = power_image(ops, np.maximum(-k, 0)), power_image(ops, np.maximum(k, 0))
    return complex(np.vdot(minus, plus))


def moment_deviation(ops, espec):
    """Largest |scale**|k| * power value at k - s_k| over the embedded box:
    zero in exact arithmetic, since the tuple realizes the moments."""
    return max(abs(ops.scale ** sum(k) * apply_power(ops, k) - value)
               for k, value in zip(espec.box.tolist(), espec.values))


def pd_section(table, radius):
    """The Toeplitz section M[p, q] = c_(p-q) of a table over the box of `radius`."""
    idx = np.indices((radius + 1,) * table.n).reshape(table.n, -1)
    return table.coeffs[tuple(idx[:, :, None] - idx[:, None, :])]


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
