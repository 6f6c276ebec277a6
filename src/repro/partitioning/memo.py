"""Compute a partition's O(|E|) metrics once per partition.

A partition is frozen once built, so every metric it reports (replica
counts, per-machine edge counts, cut sizes, and scalars reduced from
them such as balance skew) has one value for the partition's
lifetime. Engines ask for some of them every superstep; :func:`memoised`
keeps the first result on the instance.

The decorated method stays a plain method, so code that wraps methods
(profilers, timing shims) still sees every call; only the work behind
it runs once. Cached arrays are marked read-only, since every caller
shares them.
"""

from __future__ import annotations

import functools
from typing import Callable, TypeVar

import numpy as np

__all__ = ["memoised"]

T = TypeVar("T")


def memoised(method: Callable[[object], T]) -> Callable[[object], T]:
    """Cache a zero-argument method's result on its (frozen) instance.

    The value lives in the instance ``__dict__`` under a private key,
    which bypasses a frozen dataclass's ``__setattr__`` and does not
    shadow the method itself.
    """
    key = f"_memo_{method.__name__}"

    @functools.wraps(method)
    def cached(self):
        try:
            return self.__dict__[key]
        except KeyError:
            value = method(self)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            self.__dict__[key] = value
            return value

    return cached
