"""Frame-granularity batched block-transform pipeline (experiment R6).

Wolf's survey stresses that the Figure-1 transform chain — DCT, quantize,
zig-zag, run-length — is regular and data-parallel, exactly the shape media
hardware batches across a whole frame.  This module is the software version
of that observation: instead of walking 8x8 blocks one at a time through
Python loops, a plane is tiled into an ``(nblocks, n, n)`` tensor once and
every stage runs over the block axis in a handful of NumPy passes:

* ``plane_to_vectors`` — tiled DCT (one broadcast matmul pair), batched
  quantization, and index-array zig-zag, plane -> ``(nblocks, n*n)``;
* ``write_plane_vectors`` — vectorized run-length extraction
  (:func:`repro.video.rle.batch_run_levels`) plus table-driven Huffman/
  magnitude field assembly, flushed through ``BitWriter.write_many``;
* ``read_plane_vectors`` — the (inherently serial) entropy parse, shared by
  the video decoder and the JPEG codec;
* ``vectors_to_plane`` — batched dequantize + inverse zig-zag + inverse DCT
  back to a plane.

Every step is **bit-identical** to the scalar reference implementations the
codecs keep (``_code_plane_reference`` / ``_decode_plane_reference`` and
the ``*_reference`` kernels in :mod:`repro.video.zigzag`): same coefficient
values, same levels, same (run, level) events, same bitstream bytes.  The
equivalence is pinned per kernel and per codec in
``tests/test_video_blockpipe.py`` and across every registered runtime
scenario; the speedup is asserted in
``benchmarks/bench_block_pipeline.py`` (>= 5x on whole-frame intra encode).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import codec_tables as tables
from .dct import blocked_dct_2d, blocked_idct_2d, tile_blocks, untile_blocks
from .huffman import fast_decoder
from .quant import dequantize, quantize
from .rle import batch_run_levels
from .zigzag import inverse_zigzag_blocks, zigzag_blocks

# --------------------------------------------------------------- transforms


def plane_to_vectors(
    plane: np.ndarray, matrix: np.ndarray, block_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Transform + quantize + zig-zag a plane at frame granularity.

    Returns ``(levels, vectors)``: the quantized ``(nblocks, n, n)`` level
    tensor (handy for reconstruction without undoing the scan) and its
    ``(nblocks, n*n)`` zig-zag vectors, in row-major block order.
    """
    blocks = tile_blocks(plane, block_size)
    levels = quantize(blocked_dct_2d(blocks), matrix)
    return levels, zigzag_blocks(levels)


def vectors_to_plane(
    vectors: np.ndarray,
    matrix: np.ndarray,
    block_size: int,
    shape: tuple[int, int],
) -> np.ndarray:
    """Dequantize + inverse-transform zig-zag vectors back into a plane."""
    levels = inverse_zigzag_blocks(vectors, block_size)
    coeffs = dequantize(levels.astype(np.float64), matrix)
    return untile_blocks(blocked_idct_2d(coeffs), shape)


def levels_to_plane(
    levels: np.ndarray, matrix: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """Reconstruction from the pre-scan level tensor (skips the un-scan).

    ``inverse_zigzag_blocks(zigzag_blocks(levels))`` is an exact
    permutation round-trip, so feeding ``levels`` straight back is
    bit-identical to the reference path's scan/un-scan detour.
    """
    coeffs = dequantize(levels.astype(np.float64), matrix)
    return untile_blocks(blocked_idct_2d(coeffs), shape)


# ------------------------------------------------------------ entropy stage


def _field_tables(codec, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Symbol -> (code, width) lookup arrays for a Huffman codec.

    Slots the codec never assigned keep width -1 so lookups of
    out-of-alphabet symbols fail loudly (matching the scalar path's
    ``KeyError``) instead of silently emitting zero-width fields.
    """
    codes = np.zeros(size, dtype=np.int64)
    widths = np.full(size, -1, dtype=np.int64)
    for symbol, (code, width) in codec.codes.items():
        codes[symbol] = code
        widths[symbol] = width
    return codes, widths


@lru_cache(maxsize=8)
def _ac_field_tables(block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """AC symbol -> (code, width) arrays (EOB is the last symbol)."""
    return _field_tables(
        tables.default_ac_codec(block_size), tables.ac_alphabet_size(block_size)
    )


@lru_cache(maxsize=8)
def _dc_field_tables(block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """DC category -> (code, width) arrays."""
    return _field_tables(
        tables.default_dc_codec(block_size), tables.NUM_CATEGORIES
    )


def _lookup_fields(
    codes: np.ndarray, widths: np.ndarray, symbols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Table lookup that rejects unassigned symbols like ``code_for`` does."""
    symbols = np.asarray(symbols)
    if np.any(symbols >= codes.size):
        bad = int(symbols[symbols >= codes.size][0])
        raise KeyError(f"symbol {bad} not in Huffman alphabet")
    ws = widths[symbols]
    if np.any(ws < 0):
        bad = int(symbols[ws < 0][0])
        raise KeyError(f"symbol {bad} not in Huffman alphabet")
    return codes[symbols], ws


def write_plane_vectors(
    writer, vectors: np.ndarray, block_size: int, prev_dc: int
) -> int:
    """Entropy-code a plane's zig-zag vectors; returns the new DC predictor.

    Bit-identical to the scalar per-block writer (DC category + magnitude,
    then per non-zero level the packed (run, category) Huffman code + its
    magnitude bits, then EOB): every field of the plane is assembled as a
    (value, width) pair in NumPy — Huffman code and magnitude bits fused
    into one field — and flushed with a single ``write_many`` call.
    """
    vectors = np.asarray(vectors)
    nblocks = vectors.shape[0]
    if nblocks == 0:
        return prev_dc
    ac_codes, ac_widths = _ac_field_tables(block_size)
    dc_codes, dc_widths = _dc_field_tables(block_size)

    dcs = vectors[:, 0].astype(np.int64)
    diffs = np.diff(dcs, prepend=np.int64(prev_dc))
    dc_cats = tables.magnitude_categories(diffs)
    dc_codes_f, dc_widths_f = _lookup_fields(dc_codes, dc_widths, dc_cats)
    dc_vals = (dc_codes_f << dc_cats) | tables.magnitude_bits(diffs, dc_cats)
    dc_ws = dc_widths_f + dc_cats

    starts, runs, levels = batch_run_levels(vectors[:, 1:])
    counts = np.diff(starts)

    # Interleave DC / AC events / EOB per block into one flat field list:
    # block b's fields occupy [starts[b] + 2b, starts[b+1] + 2b + 2).
    total = int(starts[-1]) + 2 * nblocks
    vals = np.empty(total, dtype=np.int64)
    ws = np.empty(total, dtype=np.int64)
    dc_pos = starts[:-1] + 2 * np.arange(nblocks)
    vals[dc_pos] = dc_vals
    ws[dc_pos] = dc_ws
    eob = tables.eob_symbol(block_size)
    eob_pos = dc_pos + counts + 1
    vals[eob_pos] = ac_codes[eob]
    ws[eob_pos] = ac_widths[eob]
    if levels.size:
        ac_cats = tables.magnitude_categories(levels)
        symbols = runs * tables.NUM_CATEGORIES + ac_cats
        ac_codes_f, ac_widths_f = _lookup_fields(ac_codes, ac_widths, symbols)
        ac_pos = (
            np.arange(levels.size)
            + 2 * np.repeat(np.arange(nblocks), counts)
            + 1
        )
        vals[ac_pos] = (ac_codes_f << ac_cats) | tables.magnitude_bits(
            levels, ac_cats
        )
        ws[ac_pos] = ac_widths_f + ac_cats

    writer.write_many(vals, ws)
    return int(dcs[-1])


def read_plane_vectors(
    reader,
    nblocks: int,
    block_size: int,
    prev_dc: int,
    ac_codec,
    dc_codec,
    eob: int,
) -> tuple[np.ndarray, int]:
    """Parse a plane's entropy stream into ``(nblocks, n*n)`` vectors.

    The old "Huffman parsing cannot be vectorized" disclaimer that used
    to live here was only true of the bit-at-a-time formulation: with the
    whole buffer unpacked once into :meth:`BitReader.bit_window` peeks,
    one fused table probe (:func:`repro.video.codec_tables.event_table`)
    resolves a whole event — Huffman code *plus* magnitude field — so the
    per-symbol work drops from up to 31 dict probes and as many
    ``read_bit`` calls to a single list index.  Decoded ``(block, pos,
    level)`` triples are scattered into the batch tensor in one fancy-
    index store at the end.

    Rare events the peek cannot resolve (codes past the first-level
    depth, magnitudes spilling past the window, end-of-buffer inside an
    event, corrupt patterns) replay the exact scalar parse for that one
    event, so results *and* errors are bit-identical to
    :func:`read_plane_vectors_reference` — pinned by the oracle pair in
    ``tests/strategies/registry.py``.
    """
    length = block_size * block_size
    vectors = np.zeros((nblocks, length), dtype=np.int32)
    if nblocks == 0:
        return vectors, prev_dc
    ac_events = tables.event_table(ac_codec, eob)
    dc_events = tables.event_table(dc_codec)
    ac_fast = fast_decoder(ac_codec)
    dc_fast = fast_decoder(dc_codec)
    window = reader.bit_window()
    nbits = reader.size_bits
    pos = reader.bit_position
    bias = tables.EVENT_BIAS
    dc_values: list[int] = []
    rows: list[int] = []
    cols: list[int] = []
    levels: list[int] = []
    for b in range(nblocks):
        # --- DC event: category code + magnitude, fused ---------------
        kind = tables.EVENT_FALLBACK
        if pos < nbits:
            entry = dc_events[window[pos]]
            kind = entry >> tables.EVENT_KIND_SHIFT
            if kind == 0:
                after = pos + ((entry >> tables.EVENT_BITS_SHIFT) & 63)
                if after <= nbits:
                    prev_dc += (entry & 0xFFFFF) - bias
                    pos = after
                else:
                    kind = tables.EVENT_FALLBACK
        if kind != 0:
            reader.seek(pos)
            cat = dc_fast.decode_symbol(reader)
            prev_dc += tables.decode_magnitude(cat, reader)
            pos = reader.bit_position
        dc_values.append(prev_dc)
        # --- AC events until end-of-block ------------------------------
        p = 1
        while True:
            kind = tables.EVENT_FALLBACK
            if pos < nbits:
                entry = ac_events[window[pos]]
                kind = entry >> tables.EVENT_KIND_SHIFT
                if kind == 0:
                    after = pos + ((entry >> tables.EVENT_BITS_SHIFT) & 63)
                    if after <= nbits:
                        p += (entry >> tables.EVENT_RUN_SHIFT) & 0xFFFFF
                        if p >= length:
                            raise ValueError(
                                "corrupt stream: AC coefficients overrun "
                                "block"
                            )
                        rows.append(b)
                        cols.append(p)
                        levels.append((entry & 0xFFFFF) - bias)
                        p += 1
                        pos = after
                        continue
                    kind = tables.EVENT_FALLBACK
                elif kind == tables.EVENT_EOB:
                    after = pos + ((entry >> tables.EVENT_BITS_SHIFT) & 63)
                    if after <= nbits:
                        pos = after
                        break
                    kind = tables.EVENT_FALLBACK
            if kind != 0:
                reader.seek(pos)
                symbol = ac_fast.decode_symbol(reader)
                if symbol == eob:
                    pos = reader.bit_position
                    break
                run, cat = tables.unpack_ac(symbol)
                p += run
                if p >= length:
                    raise ValueError(
                        "corrupt stream: AC coefficients overrun block"
                    )
                value = tables.decode_magnitude(cat, reader)
                rows.append(b)
                cols.append(p)
                levels.append(value)
                p += 1
                pos = reader.bit_position
    reader.seek(pos)
    vectors[:, 0] = dc_values
    if levels:
        vectors[rows, cols] = levels
    return vectors, prev_dc


def read_plane_vectors_reference(
    reader,
    nblocks: int,
    block_size: int,
    prev_dc: int,
    ac_codec,
    dc_codec,
    eob: int,
) -> tuple[np.ndarray, int]:
    """Scalar bit-serial plane parse: the :func:`read_plane_vectors` oracle.

    One ``decode_symbol`` dict walk per code, one ``decode_magnitude``
    per level — the formulation the R6 pipeline shipped with, kept per
    the ``_reference`` convention.
    """
    length = block_size * block_size
    vectors = np.zeros((nblocks, length), dtype=np.int32)
    for b in range(nblocks):
        cat = dc_codec.decode_symbol(reader)
        prev_dc += tables.decode_magnitude(cat, reader)
        vectors[b, 0] = prev_dc
        pos = 1
        while True:
            symbol = ac_codec.decode_symbol(reader)
            if symbol == eob:
                break
            run, cat = tables.unpack_ac(symbol)
            pos += run
            if pos >= length:
                raise ValueError(
                    "corrupt stream: AC coefficients overrun block"
                )
            vectors[b, pos] = tables.decode_magnitude(cat, reader)
            pos += 1
    return vectors, prev_dc
