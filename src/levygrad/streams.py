"""Deterministic, splittable random-number streams.

Every sampling routine takes an explicit ``numpy.random.Generator``. Code
that fans out over many paths or batches derives child streams with
:func:`substream`, keyed by integer labels. The same (seed, key) always
yields the same stream, so any batch can be regenerated in isolation and
results never depend on scheduling or worker count.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = ["substream"]


def checked_integer(name: str, value, minimum: int | None = None) -> int:
    """value as an int, refused by name if it is a bool, not integral or below minimum.

    int() alone would silently turn 1.9 into 1.
    """
    try:
        integral = not isinstance(value, (bool, np.bool_)) and value == int(value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and int(value) < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def checked_float(name: str, value) -> float:
    """float(value), refused by name for a bool or a string: float(True) would run at 1.0."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def checked_reals(name: str, value) -> np.ndarray:
    """value as a float array, refused by name unless every entry is a real number:
    np.asarray(value, dtype=float) would read True and "1" as 1.0. An integer or
    float array is taken whole, without a look at each entry."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return value.astype(float)
    entries = np.asarray(value, dtype=object)
    if not all(isinstance(e, numbers.Real) and not isinstance(e, bool) for e in entries.flat):
        raise ValueError(f"{name} must hold numbers only, got {value!r}")
    return entries.astype(float)


def checked_bool(name: str, value) -> bool:
    """value as a bool, refused by name unless it is one: "no" and 1 would read as true."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a boolean, got {value!r}")
    return bool(value)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the counter-based (Philox) stream identified by ``(seed, *key)``.

    Distinct keys give statistically independent streams; identical keys
    give bit-identical streams. The seed must be a nonnegative integer.
    """
    seed = checked_integer("seed", seed, minimum=0)
    for k in key:
        if int(k) < 0:
            raise ValueError("stream key labels must be nonnegative integers")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))
