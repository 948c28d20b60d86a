"""Deterministic random streams and the shared worker pool.

Every Monte Carlo routine in the package draws from an SFC64 stream seeded
by ``SeedSequence(entropy=seed, spawn_key=path)``, where ``path`` names the
consumer (chunk index, point index, ...); only the quantile-set lattice draws
its shifts from Philox on that seed sequence (``gaussquad._lattice``).  Work
units derive their own streams and results are combined in unit order, so
outputs are identical for any worker count and any scheduling.  The Monte
Carlo layer spends most of its time drawing, and SFC64 is the fastest of
numpy's bit generators: with numpy 2.4.6 on one core of a 2-core Xeon VM,
10^7 ``standard_normal`` draws take 0.12 s against 0.16 s on Philox, and
10^7 ``chisquare(499)`` 0.21 s against 0.30 s (best of 5).  The first Monte
Carlo run of a process also sets glibc's heap to keep freed chunk arrays for
reuse (:func:`_keep_freed_chunks`).
"""

from __future__ import annotations

import ctypes
import functools
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


def seed_sequence(seed, *path: int) -> np.random.SeedSequence:
    """The seed sequence that names the substream ``(seed, *path)``."""
    root = seed_path(seed)
    return np.random.SeedSequence(entropy=root[0], spawn_key=root[1:] + tuple(int(p) for p in path))


def substream(seed, *path: int) -> np.random.Generator:
    """SFC64 generator for the substream named by ``(seed, *path)``."""
    return np.random.Generator(np.random.SFC64(seed_sequence(seed, *path)))


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


#: most chunks one Monte Carlo run is split into: their descriptors take about 1.6 MB, and at the
#: density samplers' 2^16 draws a chunk this is 2^30 draws
_MAX_CHUNKS = 1 << 14


@functools.cache
def _keep_freed_chunks() -> None:
    """Have glibc serve blocks under 2 MB from its heap and keep up to 16 MB of it free for reuse.

    A chunk of draws allocates and frees some twenty arrays of 0.5 to 1.5 MB.  By default glibc
    keeps freed heap memory only up to twice the largest block freed so far, so each chunk
    page-faulted its arrays in again.  On a 2-core VM a perfbench montecarlo round took about a quarter
    longer without these settings (medians of 10 runs).  Where the C library has no ``mallopt``
    this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 2 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD


def chunk_sizes(total: int, chunk: int) -> list[int]:
    """Split ``total`` trials into fixed-size chunks (last one ragged); DomainError past the chunk budget."""
    if total > chunk * _MAX_CHUNKS:
        raise DomainError(f"{total} trials make more than {_MAX_CHUNKS} chunks of {chunk}: "
                          f"at most {chunk * _MAX_CHUNKS}")
    _keep_freed_chunks()
    if total <= 0:
        return []
    full, rem = divmod(total, chunk)
    return [chunk] * full + ([rem] if rem else [])
