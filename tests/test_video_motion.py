"""Tests for motion estimation and compensation (paper Section 3)."""

import numpy as np
import pytest

from repro.video.motion import (
    SEARCH_ALGORITHMS,
    MotionField,
    _diamond_schedule,
    _pattern_search,
    _pattern_search_reference,
    _three_step_schedule,
    diamond_search,
    full_search,
    full_search_op_count,
    full_search_reference,
    motion_compensate,
    sad,
    three_step_search,
)


def shifted_pair(dy, dx, height=32, width=32, seed=0):
    """Reference frame and a copy translated by (dy, dx)."""
    rng = np.random.default_rng(seed)
    big = rng.uniform(0, 255, size=(height + 16, width + 16))
    y0, x0 = 8, 8
    reference = big[y0:y0 + height, x0:x0 + width].copy()
    current = big[y0 + dy:y0 + dy + height, x0 + dx:x0 + dx + width].copy()
    return current, reference


class TestSad:
    def test_identical_blocks_zero(self):
        block = np.ones((8, 8))
        assert sad(block, block) == 0.0

    def test_known_value(self):
        a = np.zeros((2, 2))
        b = np.ones((2, 2))
        assert sad(a, b) == 4.0


class TestFullSearch:
    def test_recovers_global_translation(self):
        current, reference = shifted_pair(3, -2)
        field, _ = full_search(current, reference, block_size=8, search_range=4)
        inner_dy = field.dy[1:-1, 1:-1]
        inner_dx = field.dx[1:-1, 1:-1]
        assert np.all(inner_dy == 3)
        assert np.all(inner_dx == -2)

    def test_zero_motion_for_identical_frames(self):
        frame = np.random.default_rng(1).uniform(0, 255, (16, 16))
        field, _ = full_search(frame, frame, block_size=8, search_range=3)
        assert np.all(field.dy == 0)
        assert np.all(field.dx == 0)

    def test_evaluation_count_bounded_by_window(self):
        current, reference = shifted_pair(0, 0, 16, 16)
        _, evals = full_search(current, reference, block_size=8, search_range=2)
        assert evals <= 4 * (2 * 2 + 1) ** 2

    def test_rejects_non_multiple_frame(self):
        with pytest.raises(ValueError):
            full_search(np.zeros((10, 16)), np.zeros((10, 16)), block_size=8)

    def test_reference_rejects_non_multiple_frame(self):
        with pytest.raises(ValueError):
            full_search_reference(
                np.zeros((10, 16)), np.zeros((10, 16)), block_size=8
            )


class TestVectorizedMatchesReference:
    """The vectorized full search must be indistinguishable from the loop.

    Both sum each SAD in the same order, so the comparison is bit-for-bit
    on integer-valued and continuous frames alike: same motion field,
    same evaluation count.
    """

    @pytest.mark.parametrize(
        "height,width,block_size,search_range",
        [
            (32, 48, 8, 7),     # typical
            (40, 40, 8, 12),    # range exceeds block size
            (24, 32, 4, 3),     # small blocks
            (48, 32, 16, 7),    # large blocks, portrait frame
            (16, 16, 8, 20),    # window larger than the whole frame
            (8, 8, 8, 1),       # single block
        ],
    )
    def test_random_frames(self, height, width, block_size, search_range):
        rng = np.random.default_rng(height * 1000 + width)
        current = np.floor(rng.uniform(0, 256, (height, width)))
        reference = np.floor(rng.uniform(0, 256, (height, width)))
        vec_field, vec_evals = full_search(
            current, reference, block_size, search_range
        )
        ref_field, ref_evals = full_search_reference(
            current, reference, block_size, search_range
        )
        assert vec_evals == ref_evals
        assert np.array_equal(vec_field.dy, ref_field.dy)
        assert np.array_equal(vec_field.dx, ref_field.dx)

    def test_translated_content(self):
        current, reference = shifted_pair(3, -2, seed=9)
        current, reference = np.floor(current), np.floor(reference)
        vec_field, _ = full_search(current, reference, 8, 4)
        ref_field, _ = full_search_reference(current, reference, 8, 4)
        assert np.array_equal(vec_field.dy, ref_field.dy)
        assert np.array_equal(vec_field.dx, ref_field.dx)

    def test_continuous_frames(self):
        # Non-integer frames, like the reconstructions the encoder
        # searches: the SADs are not exact, but both paths round alike.
        rng = np.random.default_rng(42)
        current = rng.uniform(0, 255, (48, 64))
        reference = rng.uniform(0, 255, (48, 64))
        vec_field, vec_evals = full_search(current, reference, 8, 7)
        ref_field, ref_evals = full_search_reference(current, reference, 8, 7)
        assert vec_evals == ref_evals
        assert np.array_equal(vec_field.dy, ref_field.dy)
        assert np.array_equal(vec_field.dx, ref_field.dx)

    def test_zero_vector_preferred_on_ties(self):
        # A constant frame ties every candidate; both implementations must
        # resolve to the cheap-to-encode zero vector.
        frame = np.full((16, 16), 7.0)
        for impl in (full_search, full_search_reference):
            field, _ = impl(frame, frame, 8, 3)
            assert np.all(field.dy == 0), impl.__name__
            assert np.all(field.dx == 0), impl.__name__

    def test_both_registered(self):
        assert SEARCH_ALGORITHMS["full"] is full_search
        assert SEARCH_ALGORITHMS["full_reference"] is full_search_reference


def smooth_shifted_pair(dy, dx, height=32, width=32):
    """Smooth (unimodal-SAD) content shifted by (dy, dx).

    Descent-style searches (diamond) assume a smooth error surface; random
    texture is their documented failure mode, so they are validated on the
    content class they are designed for.
    """
    yy, xx = np.meshgrid(
        np.arange(height + 16, dtype=float),
        np.arange(width + 16, dtype=float),
        indexing="ij",
    )
    big = 128 + 60 * np.sin(yy / 6.0) * np.cos(xx / 7.0) + yy + xx
    y0, x0 = 8, 8
    reference = big[y0:y0 + height, x0:x0 + width].copy()
    current = big[y0 + dy:y0 + dy + height, x0 + dx:x0 + dx + width].copy()
    return current, reference


class TestFastSearches:
    def test_three_step_recovers_translation_on_texture(self):
        current, reference = shifted_pair(2, 2)
        field, _ = three_step_search(
            current, reference, block_size=8, search_range=4
        )
        assert np.all(field.dy[1:-1, 1:-1] == 2)
        assert np.all(field.dx[1:-1, 1:-1] == 2)

    @pytest.mark.parametrize("search", [three_step_search, diamond_search])
    def test_recovers_translation_on_smooth_content(self, search):
        current, reference = smooth_shifted_pair(2, 2)
        field, _ = search(current, reference, block_size=8, search_range=4)
        inner_dy = field.dy[1:-1, 1:-1]
        inner_dx = field.dx[1:-1, 1:-1]
        assert np.all(inner_dy == 2)
        assert np.all(inner_dx == 2)

    @pytest.mark.parametrize("search", [three_step_search, diamond_search])
    def test_cheaper_than_full_search(self, search):
        current, reference = shifted_pair(1, -1, 48, 48, seed=2)
        _, full_evals = full_search(
            current, reference, block_size=8, search_range=7
        )
        _, fast_evals = search(current, reference, block_size=8, search_range=7)
        assert fast_evals < full_evals / 3

    def test_fast_sad_not_much_worse_than_full(self):
        rng = np.random.default_rng(3)
        current = rng.uniform(0, 255, (32, 32))
        reference = np.roll(current, (1, 1), axis=(0, 1))
        reference = reference + rng.normal(0, 2, reference.shape)
        full_field, _ = full_search(current, reference, 8, 4)
        fast_field, _ = diamond_search(current, reference, 8, 4)
        full_pred = motion_compensate(reference, full_field)
        fast_pred = motion_compensate(reference, fast_field)
        full_err = np.abs(full_pred - current).sum()
        fast_err = np.abs(fast_pred - current).sum()
        assert fast_err <= 2.5 * full_err + 1e-9


#: The step-pattern searches' ring schedules, by their SEARCH_ALGORITHMS name.
SCHEDULES = {"three_step": _three_step_schedule, "diamond": _diamond_schedule}


def lockstep_matches_loop(schedule, current, reference, n, search_range):
    """Run the lockstep driver and its loop oracle; assert bit-identity."""
    field, evals = _pattern_search(
        current, reference, n, search_range, SCHEDULES[schedule]
    )
    ref_field, ref_evals = _pattern_search_reference(
        current, reference, n, search_range, SCHEDULES[schedule]
    )
    assert evals == ref_evals
    assert field.dy.dtype == ref_field.dy.dtype == np.int32
    assert np.array_equal(field.dy, ref_field.dy)
    assert np.array_equal(field.dx, ref_field.dx)
    return field, evals


def unmoved_evaluations(schedule, height, width, n, search_range):
    """Evaluations when no block ever moves: the zero vector plus each
    ring once, counting only in-range, in-frame candidates."""
    rings = list(SCHEDULES[schedule](search_range))
    return sum(
        1 + sum(
            max(abs(oy), abs(ox)) <= search_range
            and 0 <= y0 + oy <= height - n
            and 0 <= x0 + ox <= width - n
            for ring in rings
            for oy, ox in ring
        )
        for y0 in range(0, height, n)
        for x0 in range(0, width, n)
    )


class TestLockstepPatternSearch:
    """Edge cases of the lockstep driver, each pinned to the loop oracle."""

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_registered_searches_use_the_lockstep_driver(self, schedule):
        current, reference = smooth_shifted_pair(1, 2, 24, 32)
        field, evals = SEARCH_ALGORITHMS[schedule](current, reference, 8, 4)
        lock_field, lock_evals = lockstep_matches_loop(
            schedule, current, reference, 8, 4
        )
        assert evals == lock_evals
        assert np.array_equal(field.dy, lock_field.dy)
        assert np.array_equal(field.dx, lock_field.dx)

    def test_range_one_rejects_every_large_diamond_step(self):
        # Identical frames: nothing beats the zero vector.  Each block
        # scores the zero vector, the in-frame (+-1, +-1) diagonals of the
        # large diamond and the in-frame small diamond; the four +-2
        # points exceed the range and are neither scored nor counted.
        frame = np.floor(np.random.default_rng(5).uniform(0, 256, (24, 24)))
        field, evals = lockstep_matches_loop("diamond", frame, frame, 8, 1)
        assert np.all(field.dy == 0) and np.all(field.dx == 0)
        assert evals == unmoved_evaluations("diamond", 24, 24, 8, 1)
        moved, _ = lockstep_matches_loop(
            "diamond", *shifted_pair(1, -1, 24, 24, seed=6), 8, 1
        )
        assert np.all(np.maximum(np.abs(moved.dy), np.abs(moved.dx)) <= 1)

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("dy,dx", [(-3, -3), (3, 3), (-3, 3), (3, -3)])
    def test_blocks_on_every_border(self, schedule, dy, dx):
        # Motion pointing off each corner: border blocks' best candidates
        # lie outside the frame and must be skipped, never chosen.
        n, h, w = 8, 24, 32
        current, reference = shifted_pair(dy, dx, h, w, seed=8)
        field, _ = lockstep_matches_loop(schedule, current, reference, n, 5)
        ys = np.arange(h // n)[:, None] * n + field.dy
        xs = np.arange(w // n)[None, :] * n + field.dx
        assert ys.min() >= 0 and ys.max() <= h - n
        assert xs.min() >= 0 and xs.max() <= w - n

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_single_block_frame(self, schedule, n):
        rng = np.random.default_rng(n)
        current = np.floor(rng.uniform(0, 256, (n, n)))
        reference = rng.uniform(0, 256, (n, n))
        field, evals = lockstep_matches_loop(
            schedule, current, reference, n, 7
        )
        assert field.shape == (1, 1)
        assert evals == 1  # every displaced candidate leaves the frame

    def test_blocks_converge_after_different_iteration_counts(self):
        # Interior blocks move by 0, 2 or 4 pixels on both axes, so the
        # large diamond stops after 0, 2 and 4 moves depending on the
        # block: the convergence mask must retire each at its own pass.
        n, by, bx, margin = 8, 6, 6, 8
        yy, xx = np.meshgrid(
            np.arange(by * n + 2 * margin, dtype=float),
            np.arange(bx * n + 2 * margin, dtype=float),
            indexing="ij",
        )
        big = 128 + 60 * np.sin(yy / 6.0) * np.cos(xx / 7.0) + yy + xx
        reference = big[margin:margin + by * n, margin:margin + bx * n]
        shifts = np.array([0, 2, 4])[
            (np.arange(by)[:, None] + np.arange(bx)[None, :]) % 3
        ]
        current = np.empty_like(reference)
        for i in range(by):
            for j in range(bx):
                y0, x0, d = i * n, j * n, int(shifts[i, j])
                current[y0:y0 + n, x0:x0 + n] = big[
                    margin + y0 + d:margin + y0 + d + n,
                    margin + x0 + d:margin + x0 + d + n,
                ]
        field, _ = lockstep_matches_loop("diamond", current, reference, n, 7)
        assert np.array_equal(field.dy[:5, :5], shifts[:5, :5])
        assert np.array_equal(field.dx[:5, :5], shifts[:5, :5])

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_equal_cost_does_not_move_the_centre(self, schedule):
        # A constant frame ties every candidate with the zero vector.
        frame = np.full((24, 24), 9.0)
        field, evals = lockstep_matches_loop(schedule, frame, frame, 8, 4)
        assert np.all(field.dy == 0) and np.all(field.dx == 0)
        # No block moves, so the repeating large diamond runs once.
        assert evals == unmoved_evaluations(schedule, 24, 24, 8, 4)

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_ring_ties_take_the_first_offset(self, schedule):
        # Rows alternate between two random patterns, so the centre block
        # (phase-flipped) matches at both (-1, 0) and (+1, 0) exactly; the
        # first of the two in ring order, (-1, 0), must win.  Under the
        # diamond the +-2 row shifts only tie the zero vector: no move.
        rng = np.random.default_rng(11)
        rows = np.floor(rng.uniform(0, 256, (2, 12)))
        reference = rows[np.arange(12) % 2]
        current = reference.copy()
        current[4:8, 4:8] = rows[(np.arange(4, 8) + 1) % 2][:, 4:8]
        field, _ = lockstep_matches_loop(schedule, current, reference, 4, 1)
        assert (field.dy[1, 1], field.dx[1, 1]) == (-1, 0)


class TestMotionCompensate:
    def test_zero_field_is_identity(self):
        rng = np.random.default_rng(4)
        ref = rng.uniform(0, 255, (16, 24))
        field = MotionField(
            dy=np.zeros((2, 3), dtype=np.int32),
            dx=np.zeros((2, 3), dtype=np.int32),
            block_size=8,
        )
        assert np.array_equal(motion_compensate(ref, field), ref)

    def test_translation_reconstructs_shifted_frame(self):
        current, reference = shifted_pair(2, 1)
        field, _ = full_search(current, reference, block_size=8, search_range=3)
        predicted = motion_compensate(reference, field)
        # Interior blocks should be predicted exactly.
        assert np.allclose(predicted[8:-8, 8:-8], current[8:-8, 8:-8])

    def test_out_of_bounds_vectors_clamped(self):
        ref = np.arange(64, dtype=float).reshape(8, 8)
        field = MotionField(
            dy=np.array([[100]], dtype=np.int32),
            dx=np.array([[-100]], dtype=np.int32),
            block_size=8,
        )
        out = motion_compensate(ref, field)
        assert np.array_equal(out, ref)  # clamps back to the frame


class TestOpCount:
    def test_analytic_count(self):
        # 4 blocks * 25 candidates * 64 pixel diffs
        assert full_search_op_count(16, 16, 8, 2) == 4 * 25 * 64

    def test_grows_quadratically_with_range(self):
        small = full_search_op_count(64, 64, 8, 4)
        large = full_search_op_count(64, 64, 8, 8)
        assert large / small == pytest.approx(((17) ** 2) / ((9) ** 2))


class TestMotionField:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MotionField(dy=np.zeros((2, 2)), dx=np.zeros((2, 3)), block_size=8)

    def test_magnitude(self):
        field = MotionField(
            dy=np.array([[3]]), dx=np.array([[4]]), block_size=8
        )
        assert field.magnitude() == pytest.approx(5.0)
