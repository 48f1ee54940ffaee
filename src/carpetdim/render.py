"""Raster rendering of finite-level carpet approximations.

Level k of a carpet is a union of cells of size l^-k by m^-k, one per
allowed length-k digit word.  The render walks the digit graph once,
so the filled-cell count equals the word count by construction, which
the tests cross-check against the counting engine.

``RasterImage`` is a ``NamedTuple``, so it compares equal to a plain
tuple of its fields.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import PreconditionError, ResourceError
from .sft import CarpetSpec, carpet_to_factor

__all__ = ["RasterImage", "RENDER_CELL_BUDGET", "render_carpet", "write_pbm"]

RENDER_CELL_BUDGET = 1 << 26


class RasterImage(NamedTuple):
    """A black-and-white bitmap with rows packed eight pixels per byte.

    Origin is the unit square's top left, y increasing downward: the
    cell of digit word (a_1, b_1) ... (a_k, b_k) sits at column
    sum(a_i * l^(k-i)) and row sum(b_i * m^(k-i)).  ``rows[r]`` holds
    pixel row r, most significant bit first, zero-padded to the byte.
    """

    width: int
    height: int
    rows: tuple[bytes, ...]
    filled_cells: int

    def to_pbm(self) -> bytes:
        """Binary portable bitmap: P4 header then the packed rows."""
        header = f"P4\n{self.width} {self.height}\n".encode("ascii")
        return header + b"".join(self.rows)

    def pixel(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise PreconditionError("pixel outside the image")
        return (self.rows[y][x >> 3] >> (7 - (x & 7))) & 1


def render_carpet(spec: CarpetSpec, k: int, resolution: int = 0) -> RasterImage:
    """Render the level-k approximation of a carpet.

    With ``resolution`` zero each cell is one pixel; otherwise cells are
    scaled by the largest integer factor keeping the width at or under
    ``resolution`` (never below one pixel per cell).  Raises past the
    cell budget instead of clipping: a partial render would silently
    misrepresent the set.
    """
    if k < 1:
        raise PreconditionError("level must be >= 1")
    # l m >= 2, so a level past the budget's bit length is over it
    if k >= RENDER_CELL_BUDGET.bit_length() or (spec.l * spec.m) ** k > RENDER_CELL_BUDGET:
        raise ResourceError(
            f"render budget exceeded: {spec.l}^{k} x {spec.m}^{k} cells "
            f"over the {RENDER_CELL_BUDGET}-cell budget"
        )
    cells_w, cells_h = spec.l ** k, spec.m ** k
    scale = 1
    if resolution > 0:
        scale = max(1, resolution // cells_w)
    width = cells_w * scale
    height = cells_h * scale
    if width * height > RENDER_CELL_BUDGET:
        raise ResourceError(
            f"render budget exceeded: {width} x {height} pixels "
            f"over the {RENDER_CELL_BUDGET}-pixel budget"
        )
    row_bytes = (width + 7) >> 3
    grid = [bytearray(row_bytes) for _ in range(height)]
    fs, _ = carpet_to_factor(spec)
    digits = spec.digits
    succ = fs.source.successor_sets
    filled = 0

    def fill(col: int, row: int):
        x0 = col * scale
        for y in range(row * scale, (row + 1) * scale):
            target = grid[y]
            for x in range(x0, x0 + scale):
                target[x >> 3] |= 1 << (7 - (x & 7))

    stack = [(d, digits[d][0], digits[d][1], 1) for d in range(len(digits) - 1, -1, -1)]
    while stack:
        d, col, row, depth = stack.pop()
        if depth == k:
            fill(col, row)
            filled += 1
            continue
        for d2 in succ[d]:
            a, b = digits[d2]
            stack.append((d2, col * spec.l + a, row * spec.m + b, depth + 1))
    return RasterImage(
        width=width,
        height=height,
        rows=tuple(bytes(r) for r in grid),
        filled_cells=filled,
    )


def write_pbm(image: RasterImage, path):
    with open(path, "wb") as fh:
        fh.write(image.to_pbm())
