"""Raster export: bit layout, geometry, budgets, count consistency."""

import pytest

from carpetdim.counting import partition_sum
from carpetdim.errors import PreconditionError, ResourceError
from carpetdim.fixtures import full_torus
from carpetdim.render import RENDER_CELL_BUDGET, RasterImage, render_carpet, write_pbm
from carpetdim.sft import CarpetSpec, carpet_to_factor


class TestRenderGeometry:
    def test_full_torus_fills_everything(self):
        spec = full_torus(3, 2)
        for k in (1, 2, 3):
            image = render_carpet(spec, k)
            assert image.width == 3**k
            assert image.height == 2**k
            assert image.filled_cells == 6**k
            assert all(
                image.pixel(x, y)
                for y in range(image.height)
                for x in range(image.width)
            )

    @pytest.mark.parametrize("x, y", [(-1, 0), (0, -1), (3, 0), (0, 2)])
    def test_pixel_outside_the_image_is_rejected(self, x, y):
        image = render_carpet(full_torus(3, 2), 1)
        with pytest.raises(PreconditionError, match="outside the image"):
            image.pixel(x, y)

    def test_single_origin_digit(self):
        spec = CarpetSpec(3, 2, ((0, 0),))
        image = render_carpet(spec, 3)
        assert image.filled_cells == 1
        assert image.pixel(0, 0)
        assert not image.pixel(1, 0)
        assert not image.pixel(0, 1)

    def test_single_far_corner_digit(self):
        spec = CarpetSpec(3, 2, ((2, 1),))
        image = render_carpet(spec, 2)
        # digits (2,1)(2,1): column 2*3+2 = 8, row 1*2+1 = 3
        assert image.filled_cells == 1
        assert image.pixel(8, 3)
        assert not image.pixel(0, 0)

    def test_cell_positions_follow_digit_expansion(self, carpet_21):
        image = render_carpet(carpet_21, 2)
        fs, _ = carpet_to_factor(carpet_21)
        digits = carpet_21.digits
        expected = set()
        for i in range(len(digits)):
            for j in fs.source.successor_sets[i]:
                a1, b1 = digits[i]
                a2, b2 = digits[j]
                expected.add((a1 * 3 + a2, b1 * 2 + b2))
        actual = {
            (x, y)
            for y in range(image.height)
            for x in range(image.width)
            if image.pixel(x, y)
        }
        assert actual == expected

    def test_filled_cells_equal_engine_word_count(self, carpet_21):
        fs, _ = carpet_to_factor(carpet_21)
        for k in (1, 2, 3, 4):
            image = render_carpet(carpet_21, k)
            assert image.filled_cells == fs.source.word_count(k)

    def test_restricted_transition_render(self):
        spec = CarpetSpec(3, 2, ((0, 0), (2, 1)), transitions=((0, 1), (1, 0)))
        image = render_carpet(spec, 2)
        fs, _ = carpet_to_factor(spec)
        assert image.filled_cells == fs.source.word_count(2) == 2
        # (0,0)->(2,1): column 0*3+2, row 0*2+1; and the reverse order
        assert image.pixel(2, 1)
        assert image.pixel(6, 2)


class TestResolutionScaling:
    def test_scale_multiplies_pixels_not_cells(self, carpet_21):
        base = render_carpet(carpet_21, 2)
        scaled = render_carpet(carpet_21, 2, resolution=30)
        factor = scaled.width // base.width
        assert factor == 3  # largest integer scale fitting 30 pixels
        assert scaled.height == base.height * factor
        assert scaled.filled_cells == base.filled_cells
        for y in range(base.height):
            for x in range(base.width):
                assert base.pixel(x, y) == scaled.pixel(
                    x * factor + 1, y * factor + 1
                )

    def test_tiny_resolution_never_shrinks(self, carpet_21):
        base = render_carpet(carpet_21, 2)
        small = render_carpet(carpet_21, 2, resolution=1)
        assert small.width == base.width


class TestBudgets:
    def test_cell_budget(self):
        spec = full_torus(3, 2)
        with pytest.raises(ResourceError, match="cells"):
            render_carpet(spec, 17)  # 3^17 * 2^17 cells > 2^26

    def test_pixel_budget_from_resolution(self):
        spec = full_torus(3, 2)
        with pytest.raises(ResourceError, match="pixels"):
            render_carpet(spec, 8, resolution=100_000)

    def test_level_validation(self):
        with pytest.raises(PreconditionError):
            render_carpet(full_torus(3, 2), 0)

    def test_budget_is_a_power_of_two_constant(self):
        assert RENDER_CELL_BUDGET == 1 << 26


class TestPbmBytes:
    def test_header_and_packing(self):
        spec = CarpetSpec(3, 2, ((0, 0), (1, 0), (2, 1)))
        image = render_carpet(spec, 1)
        data = image.to_pbm()
        assert data.startswith(b"P4\n3 2\n")
        body = data[len(b"P4\n3 2\n") :]
        # 3 pixels pack into one byte per row, top row first,
        # most significant bit leftmost
        assert len(body) == 2
        assert body[0] == 0b11000000  # digits (0,0) and (1,0) at level 0
        assert body[1] == 0b00100000  # digit (2,1) at level 1

    def test_row_padding_bits_are_zero(self, carpet_21):
        image = render_carpet(carpet_21, 2)  # width 9: one padding-heavy byte
        for row in image.rows:
            tail_bits = len(row) * 8 - image.width
            mask = (1 << tail_bits) - 1
            assert row[-1] & mask == 0

    def test_write_pbm(self, tmp_path):
        image = RasterImage(width=1, height=1, rows=(b"\x80",), filled_cells=1)
        out = tmp_path / "dot.pbm"
        write_pbm(image, out)
        assert out.read_bytes() == b"P4\n1 1\n\x80"
