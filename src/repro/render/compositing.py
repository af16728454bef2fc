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


def _split_rows(img: RenderedImage, parts: int) -> list[RenderedImage]:
    """Split a framebuffer into ``parts`` contiguous row-band *views*.

    No pixel data is copied; callers may read the bands or hand them to the
    communicator (which copies payloads on send, as real MPI would).
    """
    h = img.shape[0]
    bounds = [h * p // parts for p in range(parts + 1)]
    out = []
    for p in range(parts):
        sl = slice(bounds[p], bounds[p + 1])
        out.append(
            RenderedImage(
                img.rgb[sl],
                img.alpha[sl],
                None if img.depth is None else img.depth[sl],
            )
        )
    return out


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


def binary_swap(
    comm, partial: RenderedImage, root: int = 0, out: RenderedImage | None = None
) -> RenderedImage | None:
    """Binary-swap compositing; final image assembled on ``root``.

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
    into the received copy it owns.  The root stitches into ``out`` when it
    has the final image's shape and depth-ness (a frame the caller reuses
    across steps); otherwise it allocates.  On one rank nothing is stitched
    and ``partial`` itself is returned.
    """
    size, rank = comm.size, comm.rank
    if size == 1:
        return partial if rank == root else None
    # Fold excess ranks into the power-of-two active set.
    active = 1 << (size.bit_length() - 1)
    if active != size:
        funnel = active - 1
        if rank >= active:
            comm.send((partial.rgb, partial.alpha, partial.depth), dest=funnel, tag=900)
        elif rank == funnel:
            for src in range(active, size):
                r, a, d = comm.recv(source=src, tag=900)
                # The received triple is a rank-local copy: composite into
                # it in place (funnel pixels are front, rank order).
                img = RenderedImage(r, a, d)
                partial = composite_over_into(partial, img, out=img)
    if rank >= active:
        # Folded ranks still participate in the final gather collective --
        # every rank reaches this gather (active ranks call it after the
        # exchange rounds below), so the branch is not divergent.
        comm.gather(None, root=root)
        return None

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
        low_band, high_band = _split_rows(my, 2)
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
            row0 += low_band.shape[0]
        stride *= 2

    # Gather the per-rank bands to root and stitch.
    bands = comm.gather((row0, my.rgb, my.alpha, my.depth), root=root)
    if rank != root:
        return None
    bands = [b for b in bands if b is not None]
    total_h = sum(b[1].shape[0] for b in bands)
    width = bands[0][1].shape[1]
    with_depth = bands[0][3] is not None
    # Every pixel is overwritten by the stitch below: no clear, no zero fill.
    if (
        out is None
        or out.shape != (total_h, width)
        or (out.depth is not None) != with_depth
    ):
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
