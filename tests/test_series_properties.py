"""Property tests of the all-orders partition-sum assembler (hypothesis).

Examples are drawn from a fixed seed (``derandomize``) and nothing is kept
between runs, so every run checks the same inputs.  A failing example is
reported as drawn: shrinking twenty complex values takes minutes.  The
module is skipped where hypothesis is not installed; the rest of the suite
needs only pytest.
"""

import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from phaseshift import log_expansion_reference  # noqa: E402
from phaseshift.series import assemble_corrections  # noqa: E402

# partition numbers p(1) .. p(20)
PARTITION_COUNTS = (1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
                    231, 297, 385, 490, 627)
EPS = sys.float_info.epsilon

PROPERTY_SETTINGS = settings(max_examples=100, derandomize=True,
                             database=None, deadline=None,
                             phases=(Phase.explicit, Phase.generate))


def magnitude_sum(values, n):
    """Partition sum over absolute values: the n-th Taylor coefficient of
    -log(1 - sum |f_p| x^p), from the positive-sign log recurrence."""
    a = [abs(complex(v)) for v in values[:n]]
    m = [0.0] * (n + 1)
    for k in range(1, n + 1):
        m[k] = a[k - 1] + sum(j * m[j] * a[k - j - 1] for j in range(1, k)) / k
    return m[n]


def rounding_bound(values, n):
    """(p(n) + 2n) eps M_n: worst-case rounding gap of the two assemblers."""
    return (PARTITION_COUNTS[n - 1] + 2 * n) * EPS * magnitude_sum(values, n)


# Components on a 2**-16 lattice in [-4, 4]: each is zero or at least 2**-16
# in size, so products of up to 20 factors stay far above the subnormal range,
# where a relative rounding bound does not hold.
_component = st.integers(-2 ** 18, 2 ** 18).map(lambda m: m / 2 ** 16)
_values = st.lists(st.builds(complex, _component, _component),
                   min_size=20, max_size=20)


@PROPERTY_SETTINGS
@given(_values)
def test_partition_sum_equals_log_recurrence_within_rounding(f):
    for n, delta in enumerate(assemble_corrections(f, 20), start=1):
        gap = abs(delta - log_expansion_reference(f, n))
        assert gap <= rounding_bound(f, n)


@PROPERTY_SETTINGS
@given(_values, st.floats(1 / 16, 4), st.booleans())
def test_partition_sum_scaling_covariance(f, a, negative):
    # f_p -> a^p f_p multiplies every order-n product by a^n.  Both sums
    # carry their own rounding bound; the rounded a^p f_p and the final
    # product a^n delta_n add at most n eps M_n on top.
    a = -a if negative else a
    g = [a ** p * v for p, v in enumerate(f, start=1)]
    pairs = zip(assemble_corrections(f, 20), assemble_corrections(g, 20))
    for n, (delta_f, delta_g) in enumerate(pairs, start=1):
        want = a ** n * delta_f
        bound = ((PARTITION_COUNTS[n - 1] + 3 * n) * EPS
                 * (magnitude_sum(g, n) + abs(a) ** n * magnitude_sum(f, n)))
        assert abs(delta_g - want) <= bound
