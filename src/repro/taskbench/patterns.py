"""Task Bench dependency patterns (Fig. 4).

``dependencies(pattern, width, step, point)`` gives the points of
timestep ``step - 1`` the task at ``(step, point)`` reads from; the
first timestep has no dependences.  The four patterns the paper
evaluates:

* **trivial** — no dependences at all (embarrassingly parallel grid);
* **stencil_1d** — each point reads its ``{p-1, p, p+1}`` neighborhood;
* **fft** — a butterfly: ``{p, p XOR 2^((step-1) mod log2(width))}``,
  so the stride doubles each step and wraps (requires a power-of-two
  width, like the paper's ``2n×32`` and ``16×16`` grids);
* **tree** — a binary fan-out: point ``p`` reads point ``p // 2``.

Two further Task Bench patterns are provided for the extension benches:
``no_comm`` (serial chains, i.e. ``{p}``) and ``all_to_all``.
"""

from __future__ import annotations

import enum
from functools import lru_cache


class Pattern(enum.Enum):
    TRIVIAL = "trivial"
    NO_COMM = "no_comm"
    STENCIL_1D = "stencil_1d"
    STENCIL_1D_PERIODIC = "stencil_1d_periodic"
    FFT = "fft"
    TREE = "tree"
    ALL_TO_ALL = "all_to_all"
    #: Task Bench's wider-halo stencil: the +-2 neighborhood.
    NEAREST = "nearest"
    #: Task Bench's long-range pattern: a few dependences spread across
    #: the whole width, rotating with the timestep so every pair of
    #: points eventually communicates.
    SPREAD = "spread"

    @classmethod
    def paper_patterns(cls) -> tuple["Pattern", ...]:
        """The four patterns of the paper's Figures 4–6."""
        return (cls.TRIVIAL, cls.STENCIL_1D, cls.FFT, cls.TREE)


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _validate(pattern: Pattern, width: int, step: int, point: int) -> None:
    if width < 1:
        raise ValueError("width must be >= 1")
    if step < 0:
        raise ValueError("step must be >= 0")
    if not 0 <= point < width:
        raise ValueError(f"point {point} out of range [0, {width})")
    if pattern == Pattern.FFT and not _is_pow2(width):
        raise ValueError("the fft pattern requires a power-of-two width")


def dependencies(
    pattern: Pattern, width: int, step: int, point: int
) -> tuple[int, ...]:
    """Points at ``step - 1`` that ``(step, point)`` depends on (sorted)."""
    if not 0 <= point < width:
        _validate(pattern, width, step, point)
    return _dependencies_table(pattern, width, step)[point]


def _direct_dependencies(
    pattern: Pattern, width: int, step: int, point: int
) -> tuple[int, ...]:
    """:func:`dependencies`, enumerated without validation or cache."""
    if step == 0 or pattern == Pattern.TRIVIAL:
        return ()
    if pattern == Pattern.NO_COMM:
        return (point,)
    if pattern == Pattern.STENCIL_1D:
        return tuple(
            p for p in (point - 1, point, point + 1) if 0 <= p < width
        )
    if pattern == Pattern.STENCIL_1D_PERIODIC:
        return tuple(
            sorted({(point - 1) % width, point, (point + 1) % width})
        )
    if pattern == Pattern.FFT:
        stride = 1 << ((step - 1) % max(width.bit_length() - 1, 1))
        partner = point ^ stride
        return tuple(sorted({point, partner} & set(range(width))))
    if pattern == Pattern.TREE:
        return (point // 2,)
    if pattern == Pattern.ALL_TO_ALL:
        return tuple(range(width))
    if pattern == Pattern.NEAREST:
        return tuple(
            p for p in range(point - 2, point + 3) if 0 <= p < width
        )
    if pattern == Pattern.SPREAD:
        k = min(3, width)
        return tuple(
            sorted({(point + step + i * width // k) % width for i in range(k)})
        )
    raise AssertionError(f"unhandled pattern {pattern}")  # pragma: no cover


@lru_cache(maxsize=4096)
def _dependencies_table(pattern: Pattern, width: int, step: int) -> tuple[tuple[int, ...], ...]:
    """:func:`dependencies` of every point of one timestep."""
    _validate(pattern, width, step, 0)
    return tuple(
        _direct_dependencies(pattern, width, step, point)
        for point in range(width)
    )


@lru_cache(maxsize=4096)
def _dependents_table(pattern: Pattern, width: int, step: int) -> tuple[tuple[int, ...], ...]:
    """Inverse mapping for one timestep: consumers at ``step + 1``."""
    table: list[list[int]] = [[] for _ in range(width)]
    for consumer, producers in enumerate(
            _dependencies_table(pattern, width, step + 1)):
        for producer in producers:
            table[producer].append(consumer)
    return tuple(tuple(row) for row in table)


def dependents(
    pattern: Pattern, width: int, step: int, point: int
) -> tuple[int, ...]:
    """Points at ``step + 1`` that read the output of ``(step, point)``."""
    _validate(pattern, width, step, point)
    return _dependents_table(pattern, width, step)[point]


def average_in_degree(pattern: Pattern, width: int, steps: int) -> float:
    """Mean dependence count over all tasks with ``step >= 1``."""
    if steps < 2:
        return 0.0
    total = sum(
        len(row)
        for step in range(1, steps)
        for row in _dependencies_table(pattern, width, step)
    )
    return total / (width * (steps - 1))
