import math
from fractions import Fraction

import numpy as np
import pytest

from stcast.errors import (IngestionError, InputValidationError,
                           check_distinct, check_real)


class TestCheckReal:
    @pytest.mark.parametrize("interval, inside, outside", [
        ("(-inf, inf)", [-1e308, 0, 1e308], [math.nan, math.inf, -math.inf]),
        ("(0, 1)", [1e-300, 0.5, Fraction(1, 3)], [0, 1, -0.5, math.nan]),
        ("[0, 1)", [0, 0.0, -0.0, 0.999], [1, -1e-300, math.inf]),
        ("[0, inf)", [0, 1e308], [-1, math.inf, math.nan]),
        ("(0, inf)", [5e-324, 2], [0, math.inf, math.nan]),
        ("(0, inf]", [1, math.inf], [0, -math.inf, math.nan]),
        ("(-inf, 0]", [-1e308, 0], [1e-300, -math.inf, math.nan]),
    ])
    def test_interval_ends(self, interval, inside, outside):
        for value in inside:
            check_real("x", value, interval)
        for value in outside:
            with pytest.raises(InputValidationError, match="^x must be "):
                check_real("x", value, interval)

    @pytest.mark.parametrize("value", [True, False, "1", None, 1j,
                                       np.array([1.0]), [1.0]])
    def test_non_real_refused(self, value):
        with pytest.raises(InputValidationError,
                           match=r"^x must be a real number, got "):
            check_real("x", value)

    def test_numpy_scalars_accepted(self):
        for value in (np.float32(0.5), np.float64(0.5), np.int64(1), np.uint8(1)):
            check_real("x", value, "(0, inf)")

    @pytest.mark.parametrize("interval, value, wording", [
        ("(-inf, inf)", math.nan, "finite, got nan"),
        ("(-1, 1)", math.nan, "finite, got nan"),
        ("(-1, 1)", 1.0, r"in \(-1, 1\), got 1.0"),
        ("[0, inf)", -1.0, "finite and >= 0, got -1.0"),
        ("[0, inf)", math.inf, "finite, got inf"),
        ("(0, inf)", 0, "finite and > 0, got 0"),
        ("(0, inf]", math.nan, "> 0, got nan"),
        ("(-inf, 0]", 1, "finite and <= 0, got 1"),
    ])
    def test_message(self, interval, value, wording):
        with pytest.raises(InputValidationError, match=f"^x must be {wording}$"):
            check_real("x", value, interval)


class TestCheckDistinct:
    def test_distinct_accepted(self):
        check_distinct(())
        check_distinct(("a", "b"))

    def test_repeats_named_once_sorted(self):
        with pytest.raises(InputValidationError,
                           match=r"^duplicate region ids: \['a', 'b'\]$"):
            check_distinct(["b", "a", "b", "a", "c", "a"])

    def test_error_class_and_prefix(self):
        with pytest.raises(IngestionError, match=r"^f: duplicate region ids"):
            check_distinct(("a", "a"), IngestionError, "f: ")
