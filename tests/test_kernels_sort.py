"""The stable O(n) argsort behind the MapReduce shuffle and group-by.

:func:`repro.kernels.native.stable_argsort` must return exactly the
permutation of ``np.argsort(kind="stable")`` — every partition, group
and counter of the columnar runtime depends on it — with the C kernel
(counting sort for narrow key spans, LSD radix otherwise) and with the
numpy fallback the wrapper runs when ``REPRO_NATIVE=off``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernels import native

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# the kernel_tier fixture (conftest.py) pins an environment variable
# for the whole test, which is the same for every example drawn
SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def assert_matches_numpy(keys) -> None:
    keys = np.asarray(keys, dtype=np.int64)
    expected = np.argsort(keys, kind="stable")
    got = native.stable_argsort(keys)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def key_arrays(elements, max_size=400):
    return st.lists(elements, max_size=max_size).map(
        lambda xs: np.array(xs, dtype=np.int64)
    )


class TestEdgeCases:
    def test_empty(self, kernel_tier):
        assert_matches_numpy([])

    def test_single(self, kernel_tier):
        assert_matches_numpy([7])
        assert_matches_numpy([INT64_MIN])

    @pytest.mark.parametrize("value", [0, -3, 5000, INT64_MAX])
    def test_all_tied(self, kernel_tier, value):
        assert_matches_numpy([value] * 257)

    def test_extreme_pair(self, kernel_tier):
        assert_matches_numpy([INT64_MAX, INT64_MIN, INT64_MAX, INT64_MIN, 0])

    def test_large_node_ids_take_both_branches(self, kernel_tier):
        rng = np.random.default_rng(11)
        # dense span: counting sort; sparse span: multi-digit radix
        assert_matches_numpy(rng.integers(0, 50_000, 40_000))
        assert_matches_numpy(rng.integers(0, 2**40, 40_000))
        # few survivors among many node ids: two-digit radix
        assert_matches_numpy(rng.integers(0, 100_000, 500))


class TestMatchesNumpy:
    @SETTINGS
    @given(keys=key_arrays(st.integers(-(2**40), -1)))
    def test_negative_keys(self, kernel_tier, keys):
        assert_matches_numpy(keys)

    @SETTINGS
    @given(keys=key_arrays(st.integers(INT64_MIN, INT64_MAX)))
    def test_full_int64_range(self, kernel_tier, keys):
        assert_matches_numpy(keys)

    @SETTINGS
    @given(keys=key_arrays(st.integers(0, 7), max_size=2000))
    def test_partition_ids(self, kernel_tier, keys):
        assert_matches_numpy(keys)

    @SETTINGS
    @given(data=st.data(), n=st.integers(1, 5000))
    def test_node_ids(self, kernel_tier, data, n):
        keys = data.draw(key_arrays(st.integers(0, 2 * n - 1), max_size=1500))
        assert_matches_numpy(keys)

    @SETTINGS
    @given(
        keys=key_arrays(st.integers(0, 2**12)),
        shift=st.integers(0, 50),
        offset=st.integers(-(2**12), 2**12),
    )
    def test_shared_low_digits(self, kernel_tier, keys, shift, offset):
        # sparse keys: every key agrees on its low `shift` bits
        assert_matches_numpy((keys << shift) + offset)
