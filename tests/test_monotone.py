"""The monotone-map pregroup: duals by bracketing + binary search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramsem.monotone import (MonotoneMap, SearchRadiusError, galois_check,
                              monotone_left_dual, monotone_right_dual)

double = MonotoneMap(lambda m: 2 * m, name="double")
identity = MonotoneMap(lambda m: m, name="id")


class TestDuals:
    def test_doubling_left_dual(self):
        assert monotone_left_dual(double, 4) == 2
        assert monotone_left_dual(double, 5) == 3

    def test_doubling_right_dual(self):
        assert monotone_right_dual(double, 4) == 2
        assert monotone_right_dual(double, 5) == 2

    def test_identity_is_self_dual(self):
        assert monotone_left_dual(identity, 17) == 17
        assert monotone_right_dual(identity, -3) == -3

    def test_doubling_closed_forms_on_window(self):
        for n in range(-100, 101):
            assert monotone_left_dual(double, n) == (n + 1) // 2
            assert monotone_right_dual(double, n) == n // 2

    # f(0) = -4: n = -20 and -4 bracket downward from 0, n = -3 and 40
    # upward; the right dual at -4 searches for n = -3
    @pytest.mark.parametrize("dual, n, value, calls", [
        (monotone_left_dual, -20, -10, [0, -1, -2, -4, -8, -16, -12, -10, -11]),
        (monotone_right_dual, -20, -11, [0, -1, -2, -4, -8, -16, -12, -10, -11]),
        (monotone_left_dual, -4, 0, [0, -1]),
        (monotone_right_dual, -4, 1, [0, 1, 2]),
        (monotone_left_dual, -3, 2, [0, 1, 2]),
        (monotone_left_dual, 40, 30, [0, 1, 2, 4, 8, 16, 32, 24, 28, 30, 29]),
        (monotone_right_dual, 40, 29, [0, 1, 2, 4, 8, 16, 32, 24, 28, 30, 29]),
    ])
    def test_arguments_the_search_passes_to_f(self, dual, n, value, calls):
        seen = []
        f = MonotoneMap(lambda m: seen.append(m) or 3 * (m // 2) - 4)
        seen.clear()  # drop the construction probes
        assert dual(f, n) == value
        assert seen == calls

    def test_duals_match_linear_scan(self):
        # independent oracle: scan every candidate in a wide interval
        f = MonotoneMap(lambda m: 3 * (m // 2) - 4, name="scan-check")
        for n in range(-30, 31):
            ge = [m for m in range(-200, 201) if f(m) >= n]
            le = [m for m in range(-200, 201) if f(m) <= n]
            assert monotone_left_dual(f, n) == min(ge)
            assert monotone_right_dual(f, n) == max(le)


class TestValidation:
    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="not monotone"):
            MonotoneMap(lambda m: -m, name="neg")

    def test_rejects_bounded_map(self):
        with pytest.raises(ValueError, match="bounded"):
            MonotoneMap(lambda m: 0, name="const", radius=2 ** 12)

    def test_search_radius_error(self):
        # passes the construction probes but saturates above
        capped = MonotoneMap(lambda m: min(m, 50), name="capped",
                             radius=2 ** 12)
        with pytest.raises(SearchRadiusError,
                           match=r"no m with f\(m\) >= 100 within radius 4096"):
            monotone_left_dual(capped, 100)
        with pytest.raises(SearchRadiusError):
            monotone_right_dual(capped, 100)
        floored = MonotoneMap(lambda m: max(m, -50), name="floored",
                              radius=2 ** 12)
        with pytest.raises(SearchRadiusError,
                           match=r"no m with f\(m\) < -100 within radius 4096"):
            monotone_left_dual(floored, -100)

    def test_empty_probe_window(self):
        with pytest.raises(ValueError):
            MonotoneMap(lambda m: m, probe_window=(5, 2))


class TestGalois:
    def test_doubling_window(self):
        assert galois_check(double, (-100, 100))

    def test_identity_window(self):
        assert galois_check(identity, (-10, 10))

    def test_affine_window(self):
        f = MonotoneMap(lambda m: 3 * m + 1, name="3m+1")
        assert galois_check(f, (-50, 50))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4), st.integers(-20, 20))
    def test_staircase_maps(self, a, d, b):
        f = MonotoneMap(lambda m: a * (m // d) + b, name="stair")
        assert galois_check(f, (-25, 25))
