"""Motion estimation and compensation.

Section 3: *"Motion estimation compares part of one frame to a reference
frame and determines what motion would cause the selected part to appear in
the reference frame.  Motion compensation at the receiver then applies that
motion vector to reconstruct the frame ... motion estimation/compensation
greatly reduce the number of bits required to represent the video
sequence."*

Three block-matching searches are provided, spanning the compute/quality
trade-off that drives MPSoC provisioning (experiment C4 in DESIGN.md):

* :func:`full_search` — exhaustive over a +/- R window; the quality anchor
  and by far the heaviest search.
* :func:`three_step_search` — the classic logarithmic refinement.
* :func:`diamond_search` — small/large diamond pattern search, the cheapest.

All three are batched over the whole frame with NumPy: the full search
scores one displacement for every block per pass, and the two step-pattern
searches advance every block one ring per pass in lockstep.  Each loop they
replaced is kept as a ``_reference`` oracle (:func:`full_search_reference`,
:func:`_pattern_search_reference`), and every batched search returns the
same motion field and evaluation count as its oracle on any float frames
(see :func:`_block_views`), which the equivalence harness and the block
pipeline benchmark assert.

All return a :class:`MotionField` plus the number of SAD evaluations spent,
which the task-graph workload models consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MotionField:
    """Per-block motion vectors: ``dy``/``dx`` index block rows/cols."""

    dy: np.ndarray  # (blocks_y, blocks_x) int32
    dx: np.ndarray
    block_size: int

    def __post_init__(self) -> None:
        self.dy = np.asarray(self.dy, dtype=np.int32)
        self.dx = np.asarray(self.dx, dtype=np.int32)
        if self.dy.shape != self.dx.shape:
            raise ValueError("dy and dx grids must have identical shapes")

    @property
    def shape(self) -> tuple[int, int]:
        return self.dy.shape

    def magnitude(self) -> float:
        """Mean Euclidean MV magnitude (pixels)."""
        return float(np.mean(np.hypot(self.dy, self.dx)))


def sad(block: np.ndarray, candidate: np.ndarray) -> float:
    """Sum of absolute differences between two equally sized blocks."""
    return float(np.sum(np.abs(block - candidate)))


def _block_grid(frame: np.ndarray, block_size: int) -> tuple[int, int]:
    h, w = frame.shape
    if h % block_size or w % block_size:
        raise ValueError(
            f"frame {h}x{w} is not a multiple of block size {block_size}"
        )
    return h // block_size, w // block_size


def _candidate(ref: np.ndarray, y: int, x: int, n: int) -> np.ndarray | None:
    """The n x n block of ``ref`` at (y, x), or None if out of bounds."""
    h, w = ref.shape
    if y < 0 or x < 0 or y + n > h or x + n > w:
        return None
    return ref[y:y + n, x:x + n]


def _block_views(
    current: np.ndarray, reference: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """``current`` as ``(by, bx, n, n)`` blocks plus every ``n x n`` window
    of ``reference`` (a ``sliding_window_view``, no copy).

    Both sides come in the type ``block - candidate`` computes in, so a
    difference can overwrite its gathered candidates in place.  Scoring
    a candidate as ``abs(block - window)`` summed over one contiguous
    ``n*n`` row repeats :func:`sad`'s summation order exactly, so the
    batched costs equal the loop's on any float content, not only on
    integer-valued frames.
    """
    by, bx = _block_grid(current, n)
    dtype = np.result_type(current, reference)
    blocks = (
        current.astype(dtype, copy=False)
        .reshape(by, n, bx, n).swapaxes(1, 2).copy()
    )
    windows = np.lib.stride_tricks.sliding_window_view(
        reference.astype(dtype, copy=False), (n, n)
    )
    return blocks, windows


def _row_sad(diff: np.ndarray) -> np.ndarray:
    """Sum ``|diff|`` over each trailing ``n x n`` block as one contiguous
    row, in :func:`sad`'s order.  ``diff`` is overwritten in place."""
    np.abs(diff, out=diff)
    return diff.reshape(diff.shape[:-2] + (-1,)).sum(axis=-1)


def full_search(
    current: np.ndarray,
    reference: np.ndarray,
    block_size: int = 8,
    search_range: int = 7,
) -> tuple[MotionField, int]:
    """Exhaustive block matching over a (2R+1)^2 window, vectorized.

    Instead of visiting blocks one at a time (see
    :func:`full_search_reference`), each candidate displacement ``(oy, ox)``
    is scored for *every* block at once: one strided slice of the
    reference's windows against the whole block tensor.  The Python-level
    work drops from ``blocks * (2R+1)^2`` SAD calls to ``(2R+1)^2`` passes.

    Selection reproduces the reference exactly: displacements are scored in
    the same row-major ``(oy, ox)`` order, the first displacement achieving
    the minimum wins, and an exact tie with the zero vector prefers the
    zero vector (cheaper to encode).  Evaluation counts are identical too —
    out-of-frame candidates are never scored.  Each SAD is summed in
    :func:`sad`'s own order (see :func:`_block_views`), so the costs are
    bit-identical on any float frames — including the non-integer
    reconstructions the encoder searches — and so are the motion fields.

    Returns the motion field and the number of SAD evaluations performed.
    """
    n = block_size
    blocks, windows = _block_views(current, reference, n)
    by, bx = blocks.shape[:2]
    h, w = reference.shape
    displacements = [
        (oy, ox)
        for oy in range(-search_range, search_range + 1)
        for ox in range(-search_range, search_range + 1)
    ]
    costs = np.full((len(displacements), by, bx), np.inf)
    evaluations = 0
    for d, (oy, ox) in enumerate(displacements):
        # Block rows i with 0 <= i*n + oy and i*n + oy + n <= h, ditto cols.
        i_lo = (-oy + n - 1) // n if oy < 0 else 0
        i_hi = min(by - 1, (h - n - oy) // n)
        j_lo = (-ox + n - 1) // n if ox < 0 else 0
        j_hi = min(bx - 1, (w - n - ox) // n)
        if i_lo > i_hi or j_lo > j_hi:
            continue
        rows, cols = slice(i_lo, i_hi + 1), slice(j_lo, j_hi + 1)
        costs[d, rows, cols] = _row_sad(
            blocks[rows, cols]
            - windows[
                i_lo * n + oy:i_hi * n + oy + 1:n,
                j_lo * n + ox:j_hi * n + ox + 1:n,
            ]
        )
        evaluations += (i_hi - i_lo + 1) * (j_hi - j_lo + 1)
    best = np.argmin(costs, axis=0)  # first index on ties, like the loop
    zero = search_range * (2 * search_range + 1) + search_range
    minima = np.take_along_axis(costs, best[None], axis=0)[0]
    best = np.where(costs[zero] == minima, zero, best)
    offsets = np.asarray(displacements, dtype=np.int32)
    dy = offsets[best, 0]
    dx = offsets[best, 1]
    return MotionField(dy=dy, dx=dx, block_size=n), evaluations


def full_search_reference(
    current: np.ndarray,
    reference: np.ndarray,
    block_size: int = 8,
    search_range: int = 7,
) -> tuple[MotionField, int]:
    """Block-at-a-time full search: the readable reference implementation.

    Kept as the equivalence oracle for the vectorized :func:`full_search`
    and as the honest "pure software" baseline the speed claims in
    ``benchmarks/bench_runtime_streams.py`` are measured against.
    """
    by, bx = _block_grid(current, block_size)
    dy = np.zeros((by, bx), dtype=np.int32)
    dx = np.zeros((by, bx), dtype=np.int32)
    evaluations = 0
    for i in range(by):
        for j in range(bx):
            y0, x0 = i * block_size, j * block_size
            block = current[y0:y0 + block_size, x0:x0 + block_size]
            best = np.inf
            best_vec = (0, 0)
            for oy in range(-search_range, search_range + 1):
                for ox in range(-search_range, search_range + 1):
                    cand = _candidate(reference, y0 + oy, x0 + ox, block_size)
                    if cand is None:
                        continue
                    evaluations += 1
                    cost = sad(block, cand)
                    # Prefer the zero vector on ties: cheaper to encode.
                    if cost < best or (
                        cost == best and (oy, ox) == (0, 0)
                    ):
                        best = cost
                        best_vec = (oy, ox)
            dy[i, j], dx[i, j] = best_vec
    return MotionField(dy=dy, dx=dx, block_size=block_size), evaluations


def _pattern_search(
    current: np.ndarray,
    reference: np.ndarray,
    block_size: int,
    search_range: int,
    step_schedule,
) -> tuple[MotionField, int]:
    """Shared driver for the step-pattern searches (TSS, diamond), batched.

    Every block of the frame walks the same ring schedule in lockstep:
    the state is three per-block arrays (centre ``cy``/``cx`` and best
    cost), and each ring is scored for all still-active blocks as one
    gathered ``(active, K)`` SAD over the reference's windows (see
    :func:`_block_views` for why the costs equal :func:`sad`'s).

    The loop's rules (:func:`_pattern_search_reference`) carry over
    exactly: a block moves to the first minimum of the ring in offset
    order, and only if it is strictly below the block's current best;
    candidates beyond ``search_range`` or outside the frame are skipped
    and not counted.  A repeating ring (the large diamond) keeps only the
    blocks that moved on its last pass, so the Python-level work is one
    NumPy pass per ring iteration, not one SAD call per block and
    candidate.
    """
    n = block_size
    blocks, windows = _block_views(current, reference, n)
    by, bx = blocks.shape[:2]
    blocks = blocks.reshape(by * bx, n, n)
    h, w = reference.shape
    y0 = np.repeat(np.arange(by) * n, bx)
    x0 = np.tile(np.arange(bx) * n, by)
    limit = max(search_range, 0)  # the zero vector is always scored
    cy = np.zeros(by * bx, dtype=np.int64)
    cx = np.zeros(by * bx, dtype=np.int64)

    def ring_costs(active, vy, vx):
        """(len(active), K) SADs at displacements (vy, vx); inf if skipped."""
        ys, xs = y0[active, None] + vy, x0[active, None] + vx
        valid = (
            (np.maximum(np.abs(vy), np.abs(vx)) <= limit)
            & (ys >= 0) & (ys <= h - n) & (xs >= 0) & (xs <= w - n)
        )
        diff = windows[np.where(valid, ys, 0), np.where(valid, xs, 0)]
        np.subtract(blocks[active, None], diff, out=diff)
        costs = _row_sad(diff)
        return np.where(valid, costs, np.inf), int(np.count_nonzero(valid))

    # The zero vector is counted for every block, in frame or not.
    everyone = np.arange(by * bx)
    best = ring_costs(everyone, cy[:, None], cx[:, None])[0][:, 0]
    evaluations = by * bx
    for offsets in step_schedule(search_range):
        ring = np.asarray(offsets, dtype=np.int64).reshape(-1, 2)
        active = everyone
        while active.size:
            vy = cy[active, None] + ring[:, 0]
            vx = cx[active, None] + ring[:, 1]
            costs, counted = ring_costs(active, vy, vx)
            evaluations += counted
            first = np.argmin(costs, axis=1)  # first minimum in ring order
            rows = np.arange(active.size)
            lowest = costs[rows, first]
            moved = lowest < best[active]
            active = active[moved]
            best[active] = lowest[moved]
            cy[active] = vy[rows[moved], first[moved]]
            cx[active] = vx[rows[moved], first[moved]]
            if not offsets_repeat(offsets):
                break
    return MotionField(
        dy=cy.reshape(by, bx), dx=cx.reshape(by, bx), block_size=n
    ), evaluations


def _pattern_search_reference(
    current: np.ndarray,
    reference: np.ndarray,
    block_size: int,
    search_range: int,
    step_schedule,
) -> tuple[MotionField, int]:
    """Block-at-a-time step-pattern search: the :func:`_pattern_search` oracle.

    Kept per the ``_reference`` convention; the equivalence harness pins
    the lockstep driver against it, motion field and evaluation count.
    """
    by, bx = _block_grid(current, block_size)
    dy = np.zeros((by, bx), dtype=np.int32)
    dx = np.zeros((by, bx), dtype=np.int32)
    evaluations = 0
    for i in range(by):
        for j in range(bx):
            y0, x0 = i * block_size, j * block_size
            block = current[y0:y0 + block_size, x0:x0 + block_size]
            center = (0, 0)
            cand0 = _candidate(reference, y0, x0, block_size)
            best = sad(block, cand0) if cand0 is not None else np.inf
            evaluations += 1
            for offsets in step_schedule(search_range):
                while True:
                    # Classic pattern-search discipline: score the whole
                    # ring around a FIXED centre, then move once to the
                    # best point; moving mid-scan biases the walk.
                    best_move = None
                    for oy, ox in offsets:
                        vy, vx = center[0] + oy, center[1] + ox
                        if max(abs(vy), abs(vx)) > search_range:
                            continue
                        cand = _candidate(
                            reference, y0 + vy, x0 + vx, block_size
                        )
                        if cand is None:
                            continue
                        evaluations += 1
                        cost = sad(block, cand)
                        if cost < best:
                            best = cost
                            best_move = (vy, vx)
                    if best_move is not None:
                        center = best_move
                    if best_move is None or not offsets_repeat(offsets):
                        break
            dy[i, j], dx[i, j] = center
    return MotionField(dy=dy, dx=dx, block_size=block_size), evaluations


def offsets_repeat(offsets) -> bool:
    """Patterns marked repeatable iterate until no improvement (diamond)."""
    return getattr(offsets, "repeat", False)


class _RepeatingPattern(list):
    """List of offsets that the pattern driver re-applies until convergence."""

    repeat = True


def _three_step_schedule(rng: int):
    """Halving step from ``ceil(R/2)`` down to 1: 8 neighbours per ring."""
    step = max(1, (rng + 1) // 2)
    while step >= 1:
        yield [
            (oy * step, ox * step)
            for oy in (-1, 0, 1)
            for ox in (-1, 0, 1)
            if (oy, ox) != (0, 0)
        ]
        if step == 1:
            break
        step //= 2


def _diamond_schedule(rng: int):
    """Large diamond repeated until stable, then one small diamond."""
    yield _RepeatingPattern(
        [(-2, 0), (2, 0), (0, -2), (0, 2), (-1, -1), (-1, 1), (1, -1), (1, 1)]
    )
    yield [(-1, 0), (1, 0), (0, -1), (0, 1)]


def three_step_search(
    current: np.ndarray,
    reference: np.ndarray,
    block_size: int = 8,
    search_range: int = 7,
) -> tuple[MotionField, int]:
    """Three-step (logarithmic) search: halving step, 8 neighbours + centre."""
    return _pattern_search(
        current, reference, block_size, search_range, _three_step_schedule
    )


def diamond_search(
    current: np.ndarray,
    reference: np.ndarray,
    block_size: int = 8,
    search_range: int = 7,
) -> tuple[MotionField, int]:
    """Diamond search: large diamond until stable, then small diamond."""
    return _pattern_search(
        current, reference, block_size, search_range, _diamond_schedule
    )


#: Registry used by the encoder configuration and the benchmarks.
#: ``full_reference`` is the scalar loop the vectorized ``full`` replaced;
#: it stays selectable so the speedup benchmark encodes through both paths.
SEARCH_ALGORITHMS = {
    "full": full_search,
    "full_reference": full_search_reference,
    "three_step": three_step_search,
    "diamond": diamond_search,
}


def motion_compensate(reference: np.ndarray, field: MotionField) -> np.ndarray:
    """Build the predicted frame by applying ``field`` to ``reference``.

    This is the decoder-side operation the paper describes: the receiver
    holds the reference frame and applies the motion vectors.
    Out-of-bounds vectors clamp to the frame edge (encoder never emits them,
    but a robust decoder must not crash on a malformed stream).

    One gather for the whole plane (experiment R9): per-block clamped
    source origins broadcast against an intra-block offset grid give the
    full ``(by, bx, n, n)`` source index tensor, and a single fancy-index
    pull replaces the per-block copy loop kept as
    :func:`motion_compensate_reference`.
    """
    n = field.block_size
    h, w = reference.shape
    by, bx = field.shape
    offsets = np.arange(n)
    sy = np.clip(
        np.arange(by)[:, None] * n + field.dy.astype(np.int64), 0, h - n
    )
    sx = np.clip(
        np.arange(bx)[None, :] * n + field.dx.astype(np.int64), 0, w - n
    )
    rows = sy[:, :, None, None] + offsets[None, None, :, None]
    cols = sx[:, :, None, None] + offsets[None, None, None, :]
    gathered = reference[rows, cols]  # (by, bx, n, n)
    out = np.empty_like(reference)
    out[:by * n, :bx * n] = (
        gathered.transpose(0, 2, 1, 3).reshape(by * n, bx * n)
    )
    return out


def motion_compensate_reference(
    reference: np.ndarray, field: MotionField
) -> np.ndarray:
    """Scalar block-copy loop: the :func:`motion_compensate` oracle.

    Kept per the ``_reference`` convention — the equivalence harness pins
    the gather formulation above against it.
    """
    n = field.block_size
    h, w = reference.shape
    out = np.empty_like(reference)
    by, bx = field.shape
    for i in range(by):
        for j in range(bx):
            y0, x0 = i * n, j * n
            sy = min(max(y0 + int(field.dy[i, j]), 0), h - n)
            sx = min(max(x0 + int(field.dx[i, j]), 0), w - n)
            out[y0:y0 + n, x0:x0 + n] = reference[sy:sy + n, sx:sx + n]
    return out


def full_search_op_count(
    width: int, height: int, block_size: int, search_range: int
) -> int:
    """Analytic MAC count for full-search ME over one frame.

    blocks * (2R+1)^2 candidates * N^2 absolute differences — the workload
    model used for DSP/accelerator provisioning in the task graphs.
    """
    blocks = (width // block_size) * (height // block_size)
    return blocks * (2 * search_range + 1) ** 2 * block_size ** 2
