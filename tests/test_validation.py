"""Unit tests for repro.utils.validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ValidationError
from repro.utils.validation import (
    check_divides,
    check_in_range,
    check_integer_array,
    check_non_negative_int,
    check_permutation,
    check_permutation_array,
    check_permutation_stack,
    check_positive_int,
    check_probability,
    check_type,
)


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(3, "x") == 3

    def test_rejects_zero(self):
        with pytest.raises(ValidationError, match="positive"):
            check_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive_int(-2, "x")

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_positive_int(True, "x")

    def test_rejects_float(self):
        with pytest.raises(ValidationError):
            check_positive_int(2.5, "x")

    def test_error_names_argument(self):
        with pytest.raises(ValidationError, match="banana"):
            check_positive_int(-1, "banana")

    @pytest.mark.parametrize("value", [np.int64(4), np.int32(4), np.uint8(4)])
    def test_accepts_numpy_integer_scalars_as_python_int(self, value):
        result = check_positive_int(value, "x")
        assert result == 4 and type(result) is int

    @pytest.mark.parametrize(
        "value", [True, np.True_, 2.0, np.float64(2.0), "2", None],
        ids=["bool", "numpy-bool", "float", "numpy-float", "str", "none"],
    )
    def test_rejects_non_integers(self, value):
        with pytest.raises(ValidationError, match="must be an integer"):
            check_positive_int(value, "x")
        with pytest.raises(ValidationError, match="must be an integer"):
            check_non_negative_int(value, "x")


class TestCheckNonNegativeInt:
    def test_accepts_zero(self):
        assert check_non_negative_int(0, "x") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_non_negative_int(-1, "x")

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_non_negative_int(False, "x")

    def test_accepts_numpy_zero_as_python_int(self):
        result = check_non_negative_int(np.int64(0), "x")
        assert result == 0 and type(result) is int


class TestCheckInRange:
    def test_accepts_inside(self):
        assert check_in_range(3, 0, 5, "x") == 3

    def test_low_bound_inclusive(self):
        assert check_in_range(0, 0, 5, "x") == 0

    def test_high_bound_exclusive(self):
        with pytest.raises(ValidationError):
            check_in_range(5, 0, 5, "x")

    def test_rejects_below(self):
        with pytest.raises(ValidationError):
            check_in_range(-1, 0, 5, "x")

    def test_rejects_non_int(self):
        with pytest.raises(ValidationError):
            check_in_range(1.5, 0, 5, "x")


class TestCheckDivides:
    def test_exact_division_passes(self):
        check_divides(4, 12, "ctx")

    def test_non_division_fails(self):
        with pytest.raises(ConfigurationError, match="does not divide"):
            check_divides(5, 12, "ctx")

    def test_zero_divisor_fails(self):
        with pytest.raises(ConfigurationError):
            check_divides(0, 12, "ctx")


class TestCheckPermutation:
    def test_valid_permutation(self):
        assert check_permutation([2, 0, 1]) == [2, 0, 1]

    def test_returns_copy(self):
        original = [1, 0]
        result = check_permutation(original)
        assert result == [1, 0]
        assert result is not original

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length"):
            check_permutation([0, 1], n=3)

    def test_repeated_image(self):
        with pytest.raises(ValidationError, match="repeats"):
            check_permutation([0, 0, 2])

    def test_out_of_range_image(self):
        with pytest.raises(ValidationError, match="out of range"):
            check_permutation([0, 3, 1])

    def test_negative_image(self):
        with pytest.raises(ValidationError):
            check_permutation([0, -1, 2])

    def test_accepts_tuple_input(self):
        assert check_permutation((1, 0)) == [1, 0]

    def test_empty_is_valid(self):
        assert check_permutation([]) == []

    @pytest.mark.parametrize(
        "pi",
        [[1.0, 0.0], ["1", "0"], [True, False, 2, 3], (1, 0, True, 3)],
        ids=["float", "string", "mixed-bool-list", "mixed-bool-tuple"],
    )
    def test_non_integer_entries_rejected(self, pi):
        with pytest.raises(ValidationError, match="not integer-valued"):
            check_permutation(pi)


class TestCheckPermutationArrays:
    NON_INTEGER = [
        [1.0, 0.0], ["1", "0"], [True, False], [True, False, 2, 3], (1, 0, True, 3),
    ]
    IDS = ["float", "string", "bool", "mixed-bool-list", "mixed-bool-tuple"]

    @pytest.mark.parametrize("pi", NON_INTEGER, ids=IDS)
    def test_array_rejects_non_integer_entries(self, pi):
        with pytest.raises(ValidationError, match="not integer-valued"):
            check_permutation_array(pi)

    @pytest.mark.parametrize("pi", NON_INTEGER, ids=IDS)
    def test_stack_rejects_non_integer_entries(self, pi):
        with pytest.raises(ValidationError, match="not integer-valued"):
            check_permutation_stack([pi, pi])

    def test_integer_stack_of_any_width_is_accepted(self):
        stack = check_permutation_stack(np.array([[1, 0], [0, 1]], dtype=np.uint8))
        assert stack.dtype == np.int64 and stack.tolist() == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("huge", [2**63, 2**64 - 1], ids=["2^63", "2^64-1"])
    def test_huge_uint64_entry_named_like_check_permutation(self, huge):
        pi = np.array([1, 0, 3, huge], dtype=np.uint64)
        with pytest.raises(ValidationError) as scalar:
            check_permutation(pi.tolist())
        expected = f"permutation entry {huge} out of range [0, 4)"
        assert str(scalar.value) == expected
        with pytest.raises(ValidationError) as array:
            check_permutation_array(pi)
        assert str(array.value) == expected
        with pytest.raises(ValidationError) as stack:
            check_permutation_stack(np.stack([np.arange(4, dtype=np.uint64), pi]))
        assert str(stack.value) == expected


class TestCheckIntegerArray:
    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.int64])
    def test_integer_dtypes_become_int64(self, dtype):
        values = check_integer_array(np.array([2, 0, 1], dtype=dtype))
        assert values.dtype == np.int64 and values.tolist() == [2, 0, 1]

    @pytest.mark.parametrize("values", [
        [1.0, 0.0], ["1", "0"], [True, False], [[0, 1], [0]], [2**70, 0],
        [1, True], [[0, 1], (True, 0)], [np.True_, 1],
    ], ids=[
        "float", "string", "bool", "ragged", "oversized", "mixed-bool",
        "nested-mixed-bool", "numpy-bool-entry",
    ])
    def test_non_integer_input_rejected(self, values):
        with pytest.raises(ValidationError, match="pi is not integer-valued"):
            check_integer_array(values, "pi")

    def test_empty_is_allowed(self):
        assert check_integer_array([]).dtype == np.int64


class TestCheckProbability:
    def test_bounds_accepted(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0

    def test_interior_accepted(self):
        assert check_probability(0.25, "p") == 0.25

    def test_above_one_rejected(self):
        with pytest.raises(ValidationError):
            check_probability(1.01, "p")

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            check_probability(-0.1, "p")


class TestCheckType:
    def test_accepts_matching_type(self):
        assert check_type("abc", str, "x") == "abc"

    def test_rejects_mismatch(self):
        with pytest.raises(ValidationError, match="type"):
            check_type("abc", int, "x")

    def test_accepts_union(self):
        assert check_type(3, (int, float), "x") == 3
