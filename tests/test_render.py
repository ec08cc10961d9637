import numpy as np
import pytest

from attnsyntax import AttentionDump
from attnsyntax.render import hardened_matrix, image_name, pgm_bytes, render_head, sidecar_text
from oracles import hardened_by_rows

IDENTITY_P5 = b"P5\n3 3\n255\n" + bytes(
    [255, 0, 0, 0, 255, 0, 0, 0, 255]
)


class TestPgmBytes:
    def test_identity_exact_bytes(self):
        assert pgm_bytes(np.eye(3)) == IDENTITY_P5

    def test_half_rounds_up(self):
        data = pgm_bytes(np.array([[0.5]]))
        assert data == b"P5\n1 1\n255\n" + bytes([128])

    def test_extremes(self):
        data = pgm_bytes(np.array([[0.0, 1.0]]))
        assert data.endswith(bytes([0, 255]))

    def test_row_major_orientation(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])  # bright pixel row 1, col 2
        data = pgm_bytes(m)
        assert data == b"P5\n2 2\n255\n" + bytes([0, 255, 0, 0])

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            pgm_bytes(np.zeros(3))


class TestRenderHead:
    def test_matches_pgm_of_matrix(self, identity_dump):
        assert render_head(identity_dump, 1, 1) == pgm_bytes(identity_dump.matrix(1, 1))

    def test_hardened_variant(self, identity_dump):
        expected = pgm_bytes(hardened_by_rows(identity_dump.matrix(1, 1)))
        assert render_head(identity_dump, 1, 1, hardened=True) == expected

    def test_out_of_range_lists_valid_ranges(self, identity_dump):
        with pytest.raises(ValueError, match=r"^head \(3,1\) outside universe 1..1 x 1..1$"):
            render_head(identity_dump, 3, 1)


def _tied_and_zero_rows(rng, n):
    """Rows drawn from a few levels, so maxima tie, with every third row
    all zeros."""
    m = rng.integers(0, 3, size=(n, n)) / 2.0
    m[::3] = 0.0
    return m


class TestHardenedMatrix:
    """The dense hardened matrix against the row-by-row reference."""

    def test_ties_go_leftmost(self):
        m = np.array([[0.5, 0.5, 0.0], [0.0, 0.4, 0.4], [0.2, 0.0, 0.2]])
        expected = np.array([[0.5, 0.0, 0.0], [0.0, 0.4, 0.0], [0.2, 0.0, 0.0]])
        assert np.array_equal(hardened_matrix(m), expected)
        assert np.array_equal(hardened_by_rows(m), expected)

    def test_zero_row_stays_zero(self):
        m = np.array([[0.0, 0.0], [0.3, 0.7]])
        assert np.array_equal(hardened_matrix(m), np.array([[0.0, 0.0], [0.0, 0.7]]))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_rows_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        for m in (_tied_and_zero_rows(rng, n), rng.dirichlet(np.ones(n), size=n)):
            expected = hardened_by_rows(m)
            assert hardened_matrix(m).tobytes() == expected.tobytes()
        # a valid dump has no zero row, so only the simplex rows are rendered
        dump = AttentionDump("m", tuple(f"t{i}" for i in range(n - 1)) + ("EOS",), m[None, None])
        assert render_head(dump, 1, 1, hardened=True) == pgm_bytes(expected)


class TestNames:
    def test_image_name(self):
        assert image_name("toy-01", 2, 13) == "stoy-01_l2_h13"

    def test_hardened_suffix(self):
        assert image_name("x", 1, 1, hardened=True) == "sx_l1_h1_hardened"

    def test_unsafe_characters_replaced(self):
        assert image_name("a/b c", 1, 1) == "sa_b_c_l1_h1"


def test_sidecar_lists_subwords(identity_dump):
    assert sidecar_text(identity_dump.subwords) == "a\nb\nEOS\n"
