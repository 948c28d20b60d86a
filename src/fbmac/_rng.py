"""Deterministic random streams and the shared worker pool.

Every stochastic routine in the package draws from a counter-based Philox
stream derived from ``(seed, *path)``, where ``path`` names the consumer
(ray index, chunk index, randomization index, ...).  Work units derive their
own streams and results are combined in unit order, so outputs are identical
for any worker count and any scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .core import DomainError

SEED_ENV = "FBMAC_SEED"
THREADS_ENV = "FBMAC_THREADS"

T = TypeVar("T")
U = TypeVar("U")


def default_seed() -> int:
    """Seed used when a caller passes none: ``FBMAC_SEED`` or 0."""
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def seed_path(seed) -> tuple[int, ...]:
    """Flatten an int or arbitrarily nested (seed, *path) tuple into ints."""
    if isinstance(seed, (tuple, list)):
        out: list[int] = []
        for part in seed:
            out.extend(seed_path(part))
        return tuple(out)
    return (int(seed),)


def substream(seed, *path: int) -> np.random.Generator:
    """Philox generator for the substream named by ``(seed, *path)``."""
    root = seed_path(seed)
    ss = np.random.SeedSequence(entropy=root[0], spawn_key=root[1:] + tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def worker_count() -> int:
    """Pool size: ``FBMAC_THREADS`` (at least 1), or the number of logical cores."""
    raw = os.environ.get(THREADS_ENV, "").strip() or str(os.cpu_count() or 1)
    try:
        return max(1, int(raw))
    except ValueError:
        raise DomainError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None


def thread_map(fn: Callable[[T], U], items: Iterable[T]) -> list[U]:
    """Map ``fn`` over ``items`` preserving order; pool size from FBMAC_THREADS.

    ``fn`` must be pure given its item (in particular it must derive any
    random stream from the item itself), so the result is independent of the
    worker count.
    """
    seq: Sequence[T] = list(items)
    workers = min(worker_count(), len(seq))
    if workers <= 1:
        return [fn(x) for x in seq]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seq))


def chunk_sizes(total: int, chunk: int) -> list[int]:
    """Split ``total`` trials into fixed-size chunks (last one ragged)."""
    if total <= 0:
        return []
    full, rem = divmod(total, chunk)
    return [chunk] * full + ([rem] if rem else [])
