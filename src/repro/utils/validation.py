"""Input validation helpers used across the library.

All helpers raise :class:`repro.exceptions.ValidationError` (or
:class:`ConfigurationError` where the problem is structural) with messages that
name the offending argument, so failures surface close to the API boundary
rather than deep inside the combinatorial machinery.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError, ValidationError
from repro.utils.arrayops import first_repeat

__all__ = [
    "check_positive_int",
    "check_non_negative_int",
    "check_in_range",
    "check_divides",
    "check_integer_array",
    "check_permutation",
    "check_permutation_array",
    "check_permutation_stack",
    "check_probability",
    "check_type",
]


def check_type(value: Any, types: type | tuple[type, ...], name: str) -> Any:
    """Ensure ``value`` is an instance of ``types``; return it unchanged."""
    if not isinstance(value, types):
        raise ValidationError(
            f"{name} must be of type {types!r}, got {type(value).__name__}"
        )
    return value


def _as_int(value: Any, name: str) -> int:
    """``value`` as a Python ``int`` via ``operator.index``; bools rejected.

    numpy integer scalars pass (``np.int64(4)`` becomes ``4``); ``bool``,
    ``np.True_`` and floats such as ``2.0`` do not.
    """
    if isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def check_positive_int(value: Any, name: str) -> int:
    """Ensure ``value`` is an integer (not bool) strictly greater than zero.

    Returns it as a Python ``int`` (numpy integer scalars are accepted).
    """
    value = _as_int(value, name)
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return value


def check_non_negative_int(value: Any, name: str) -> int:
    """Ensure ``value`` is an integer (not bool) greater than or equal to zero.

    Returns it as a Python ``int`` (numpy integer scalars are accepted).
    """
    value = _as_int(value, name)
    if value < 0:
        raise ValidationError(f"{name} must be non-negative, got {value}")
    return value


def check_in_range(value: int, low: int, high: int, name: str) -> int:
    """Ensure ``low <= value < high``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if not (low <= value < high):
        raise ValidationError(f"{name} must be in [{low}, {high}), got {value}")
    return value


def check_divides(divisor: int, dividend: int, context: str) -> None:
    """Ensure ``divisor`` divides ``dividend`` exactly."""
    if divisor <= 0:
        raise ConfigurationError(f"{context}: divisor must be positive, got {divisor}")
    if dividend % divisor != 0:
        raise ConfigurationError(
            f"{context}: {divisor} does not divide {dividend}"
        )


def _has_bool_entry(values: list | tuple) -> bool:
    """True iff a (nested) list or tuple holds a ``bool`` entry.

    numpy promotes ``[True, False, 2, 3]`` to int64 and ``operator.index``
    accepts ``True``, so bools are caught here, before either sees them.
    Only Python sequences are scanned; numpy rows are left to the dtype check.
    """
    kinds = set(map(type, values))
    if bool in kinds or np.bool_ in kinds:
        return True
    return bool(kinds & {list, tuple}) and any(
        _has_bool_entry(row) for row in values if isinstance(row, (list, tuple))
    )


def check_permutation(pi: Sequence[int], n: int | None = None) -> list[int]:
    """Validate that ``pi`` is a permutation of ``{0, ..., len(pi) - 1}``.

    Parameters
    ----------
    pi:
        Candidate permutation given as a sequence of destination indices.
    n:
        Expected length; if given, ``len(pi)`` must equal ``n``.

    Returns
    -------
    list[int]
        A defensive copy of the permutation as a plain list of ints.
    """
    if isinstance(pi, (list, tuple)) and _has_bool_entry(pi):
        raise ValidationError("permutation is not integer-valued: got a bool entry")
    try:
        values = [operator.index(x) for x in pi]
    except TypeError as error:
        raise ValidationError(f"permutation is not integer-valued: {error}") from None
    if n is not None and len(values) != n:
        raise ValidationError(
            f"permutation has length {len(values)}, expected {n}"
        )
    size = len(values)
    seen = [False] * size
    for image in values:
        if not (0 <= image < size):
            raise ValidationError(
                f"permutation entry {image} out of range [0, {size})"
            )
        if seen[image]:
            raise ValidationError(f"permutation repeats the image {image}")
        seen[image] = True
    return values


def check_integer_array(values: Any, name: str = "permutation") -> np.ndarray:
    """``values`` as an ``int64`` array, refusing anything not integer-typed.

    The dtype is the one numpy infers, so floats (even whole ones), numeric
    strings, bool-only input and ragged or oversized nestings all raise
    instead of being coerced.  A bool anywhere in list or tuple input raises
    too, although numpy would promote it.  Empty input is allowed, since
    numpy types it as float.  ``uint64`` entries of ``2**63`` and above wrap
    to negative values in the cast.
    """
    return _integer_array(values, name).astype(np.int64, copy=False)


def _integer_array(values: Any, name: str) -> np.ndarray:
    """:func:`check_integer_array` before the ``int64`` cast."""
    if isinstance(values, (list, tuple)) and _has_bool_entry(values):
        raise ValidationError(f"{name} is not integer-valued: got a bool entry")
    try:
        array = np.asarray(values)
    except (TypeError, ValueError) as error:
        raise ValidationError(f"{name} is not integer-valued: {error}") from None
    if array.dtype.kind not in "iu" and array.size:
        raise ValidationError(
            f"{name} is not integer-valued: got entries of dtype {array.dtype}"
        )
    return array


def check_permutation_array(pi: Sequence[int], n: int | None = None) -> np.ndarray:
    """Vectorized :func:`check_permutation` returning an ``int64`` array.

    Same contract and messages: a one-dimensionality check, then the B = 1
    row of :func:`check_permutation_stack`.
    """
    values = _integer_array(pi, "permutation")
    if values.ndim != 1:
        raise ValidationError(
            f"permutation must be one-dimensional, got shape {values.shape}"
        )
    return check_permutation_stack(values[None], n)[0]


def check_permutation_stack(pis: Any, n: int | None = None) -> np.ndarray:
    """Validate a ``(B, n)`` stack of permutations; returns an ``int64`` array.

    Every row must be a permutation of ``{0, ..., n-1}``.  Violations raise
    with the single-permutation message for the row-major first offender.
    """
    raw = _integer_array(pis, "permutation")
    if raw.ndim != 2:
        raise ValidationError(
            f"permutation stack must be two-dimensional, got shape {raw.shape}"
        )
    # An out-of-range entry is named from ``raw``: ``uint64`` entries of
    # 2**63 and above are negative after the cast, which still flags them,
    # but only ``raw`` holds the value check_permutation names.
    values = raw.astype(np.int64, copy=False)
    size = values.shape[1]
    if n is not None and size != n:
        raise ValidationError(
            f"permutation has length {size}, expected {n}"
        )
    if not values.size:
        return values
    if values.min() < 0 or values.max() >= size:
        out_of_range = (values < 0) | (values >= size)
        b, i = np.unravel_index(int(np.argmax(out_of_range)), out_of_range.shape)
        raise ValidationError(
            f"permutation entry {int(raw[b, i])} out of range [0, {size})"
        )
    repeat = first_repeat(values, size)
    if repeat is not None:
        raise ValidationError(f"permutation repeats the image {repeat[1]}")
    return values


def check_probability(value: float, name: str) -> float:
    """Ensure ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return value
