"""Parallel image compositing over the simulated MPI runtime.

"There is a costly compositing operation that involves communication of
image-sized buffers among a hierarchical set of ranks to ultimately produce
a final composite image on a single rank ... Catalyst and Libsim use
different compositing algorithms" (Sec. 4.1.3).  We implement the two
classic families so that difference is reproducible:

- :func:`binary_swap` -- log2(P) rounds; each round pairs exchange image
  halves, so every rank ends holding 1/P of the final image, then the
  pieces are gathered to the root.  Per-rank traffic is O(pixels) total.
- :func:`direct_send` -- every rank ships its full partial image straight
  to the root, which composites all P of them.  Root-side cost grows
  linearly in P, which is what makes its scaling curve differ.

Both accept :class:`~repro.render.rasterize.RenderedImage` partials and
resolve overlap with depth when present, else alpha priority (any rendered
pixel beats background; between two rendered pixels the lower rank wins,
a stable convention for disjoint-domain slice rendering).
"""

from __future__ import annotations

import numpy as np

from repro.render.rasterize import RenderedImage


def composite_over(front: RenderedImage, back: RenderedImage) -> RenderedImage:
    """Composite ``front`` over ``back`` into a new image.

    With depth buffers the nearer pixel wins; otherwise ``front`` wins
    wherever it rendered, and ``back`` fills the rest.
    """
    if front.shape != back.shape:
        raise ValueError("cannot composite images of different shapes")
    if (front.depth is None) != (back.depth is None):
        raise ValueError("both images must carry depth, or neither")
    if front.depth is not None:
        take_front = front.depth <= back.depth
        # Pixels empty on both sides keep +inf depth and alpha 0.
        rgb = np.where(take_front[..., None], front.rgb, back.rgb)
        alpha = np.where(take_front, front.alpha, back.alpha)
        depth = np.where(take_front, front.depth, back.depth)
        return RenderedImage(rgb, alpha, depth)
    take_front = front.alpha > 0
    rgb = np.where(take_front[..., None], front.rgb, back.rgb)
    alpha = np.where(take_front, front.alpha, back.alpha)
    return RenderedImage(rgb, alpha)


def _copy_where(dst: RenderedImage, src: RenderedImage, mask: np.ndarray) -> None:
    """``dst[mask] = src[mask]`` on every plane, touching only the bounding
    box of ``mask``: a rank's coverage is a rectangle, so the box is
    usually far smaller than the frame and often fully selected."""
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return
    cols = np.flatnonzero(mask.any(axis=0))
    box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    planes = [(dst.rgb, src.rgb), (dst.alpha, src.alpha)]
    if src.depth is not None:
        planes.append((dst.depth, src.depth))
    sub = mask[box]
    if sub.all():
        for d, s in planes:
            d[box] = s[box]
        return
    # Materialized 3-channel mask: copyto over a stride-0 broadcast mask is
    # ~40% slower than over a contiguous one.
    sub3 = np.repeat(sub[..., None], 3, axis=2)
    for d, s in planes:
        np.copyto(d[box], s[box], where=sub3 if d.ndim == 3 else sub)


def composite_over_into(
    front: RenderedImage, back: RenderedImage, out: RenderedImage | None = None
) -> RenderedImage:
    """Composite ``front`` over ``back`` into ``out`` (default: ``back``).

    The zero-alloc counterpart of :func:`composite_over`: no framebuffer
    triple is created -- only a boolean selection mask -- and only the
    bounding box of the pixels that change is written.  ``out`` may alias
    ``front`` or ``back``; its depth-carrying-ness must match theirs.  The
    pixel semantics are identical to :func:`composite_over`.
    """
    if front.shape != back.shape:
        raise ValueError("cannot composite images of different shapes")
    if (front.depth is None) != (back.depth is None):
        raise ValueError("both images must carry depth, or neither")
    if out is None:
        out = back
    if out.shape != front.shape or (out.depth is None) != (front.depth is None):
        raise ValueError("out must match the composited images' shape and depth")
    if front.depth is not None:
        take_front = front.depth <= back.depth
    else:
        take_front = front.alpha > 0
    if out is not front:
        _copy_where(out, front, take_front)
    if out is not back:
        _copy_where(out, back, ~take_front)
    return out


def _rows(img: RenderedImage, a: int, b: int) -> RenderedImage:
    """Rows ``[a, b)`` of a framebuffer as *views*: no pixel is copied.

    Callers may read the band or hand it to the communicator (which copies
    payloads on send, as real MPI would).
    """
    return RenderedImage(
        img.rgb[a:b], img.alpha[a:b], None if img.depth is None else img.depth[a:b]
    )


def _halve(lo: int, hi: int) -> int:
    """Where binary swap splits rows ``[lo, hi)``: the high half is never
    the smaller one."""
    return lo + (hi - lo) // 2


def band_rows(height: int, path: int, depth: int) -> tuple[int, int]:
    """Rows ``[lo, hi)`` of a ``height``-row frame that rank ``path`` holds
    after ``depth`` binary-swap rounds.

    Round ``j`` halves the band and keeps the high half when bit ``j`` of
    ``path`` is set, so bands are nested: the band at depth ``d`` is the
    union of its two children at depth ``d + 1``.
    """
    lo, hi = 0, height
    for level in range(depth):
        mid = _halve(lo, hi)
        if path >> level & 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


def direct_send(comm, partial: RenderedImage, root: int = 0) -> RenderedImage | None:
    """Every rank sends its partial to the root; root composites in rank order.

    The gathered pieces are root-owned copies (the communicator copies
    payloads, as real MPI would), so the rank-order fold composites in
    place instead of allocating a fresh framebuffer per rank.
    """
    pieces = comm.gather(
        (partial.rgb, partial.alpha, partial.depth), root=root
    )
    if comm.rank != root:
        return None
    images = [RenderedImage(r, a, d) for (r, a, d) in pieces]
    result = images[0]
    for img in images[1:]:
        result = composite_over_into(result, img, out=img)
    return result


def swap_band(comm, partial: RenderedImage) -> tuple[int, RenderedImage] | None:
    """Binary-swap compositing up to, not including, the final gather.

    Returns ``(row0, band)``: this rank's fully composited row band and the
    frame row it starts at, or ``None`` on a rank the funnel below folded
    away.  Rank ``r`` of the power-of-two active set holds
    ``band_rows(height, r, log2(active))``.

    Works for any communicator size: ranks beyond the largest power of two
    first fold, in rank order, into the *highest* active rank, then the
    active power-of-two set runs log2 rounds of half-image exchanges.
    Folding everything behind the highest-priority position is what keeps
    the rank-order overlap convention identical to direct send's -- folding
    each extra rank into an arbitrary partner would let a high rank's
    pixels outrank a lower active rank's.  (The funnel serializes up to
    size - 2^floor(log2 size) receives on one rank; production compositors
    avoid that with depth-carrying payloads instead.)

    The rounds are allocation-free on the compositing side: each rank keeps
    its retained half as a *view*, sends the other half (the communicator
    copies payloads, modeling the network buffer), and composites in place
    into the received copy it owns.  On one rank ``partial`` itself is the
    band.
    """
    size, rank = comm.size, comm.rank
    # Fold excess ranks into the power-of-two active set.
    active = 1 << (size.bit_length() - 1)
    if active != size:
        funnel = active - 1
        if rank >= active:
            comm.send((partial.rgb, partial.alpha, partial.depth), dest=funnel, tag=900)
            return None
        if rank == funnel:
            for src in range(active, size):
                r, a, d = comm.recv(source=src, tag=900)
                # The received triple is a rank-local copy: composite into
                # it in place (funnel pixels are front, rank order).
                img = RenderedImage(r, a, d)
                partial = composite_over_into(partial, img, out=img)

    # log2(active) rounds of half exchanges, pairing ADJACENT ranks first
    # (peer = rank XOR stride, stride doubling).  At stride s each rank's
    # band already holds the composite of its aligned rank block of size s,
    # and the peer's block is the adjacent one -- so compositing lower
    # block as front preserves the global rank-priority order exactly.
    # (Pairing distant ranks first interleaves blocks and breaks it.)
    my = partial
    row0 = 0  # global starting row of my band
    stride = 1
    while stride < active:
        peer = rank ^ stride
        in_low = (rank & stride) == 0
        h = my.shape[0]
        mid = _halve(0, h)
        low_band, high_band = _rows(my, 0, mid), _rows(my, mid, h)
        keep, send_img = (low_band, high_band) if in_low else (high_band, low_band)
        got = comm.sendrecv(
            (send_img.rgb, send_img.alpha, send_img.depth),
            dest=peer,
            source=peer,
            sendtag=901,
            recvtag=901,
        )
        # ``other`` is this rank's own copy of the peer's band; ``keep`` is
        # a read-only view into ``my`` -- so compositing writes into
        # ``other`` and no framebuffer is allocated this round.
        other = RenderedImage(*got)
        # Lower rank block composites as front (rank-order convention).
        if rank < peer:
            my = composite_over_into(keep, other, out=other)
        else:
            my = composite_over_into(other, keep, out=other)
        if not in_low:
            row0 += mid
        stride *= 2
    return row0, my


def binary_swap(comm, partial: RenderedImage, root: int = 0) -> RenderedImage | None:
    """Binary-swap compositing (:func:`swap_band`); final image assembled
    on ``root`` from the gathered row bands.

    On one rank nothing is stitched and ``partial`` itself is returned.
    """
    if comm.size == 1:
        return partial if comm.rank == root else None
    # Every rank reaches this gather, folded ranks with ``None``.
    got = swap_band(comm, partial)
    bands = comm.gather(
        None if got is None else (got[0], got[1].rgb, got[1].alpha, got[1].depth),
        root=root,
    )
    if comm.rank != root:
        return None
    bands = [b for b in bands if b is not None]
    total_h = sum(b[1].shape[0] for b in bands)
    width = bands[0][1].shape[1]
    with_depth = bands[0][3] is not None
    # Every pixel is overwritten by the stitch below: no zero fill.
    out = RenderedImage(
        np.empty((total_h, width, 3), dtype=np.uint8),
        np.empty((total_h, width), dtype=np.uint8),
        np.empty((total_h, width), dtype=np.float32) if with_depth else None,
    )
    for r0, rgb, alpha, depth in bands:
        h = rgb.shape[0]
        out.rgb[r0 : r0 + h] = rgb
        out.alpha[r0 : r0 + h] = alpha
        if with_depth:
            out.depth[r0 : r0 + h] = depth
    return out
