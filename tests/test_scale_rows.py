"""engine.scale_rows against the broadcast c[:, None] * w it stands for, byte for byte.

The jump rounds, the weight terms, the beta-weighted marks and the mark
sampler scale each row of a row-major (m, d) array by a per-row factor
through scale_rows, which takes the products one coordinate at a time for
narrow rows. Each element is one IEEE product either way, so the bytes must
be the broadcast's, signed zeros, infinities and NaNs included, for a new
array and in place on a prefix view of the state. The result must stay
row-major: einsum's order of summing a row follows the memory layout.
"""

import numpy as np
import pytest

from levygrad.engine import SCALE_BY_COORDINATE, scale_rows

pytestmark = pytest.mark.pin

WIDTHS = (1, 2, 3, 4, 9)
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -2.5, 1e308])


def _operands(m, d, kind, seed):
    """(m,) factors of the kind ("float" or "bool") and an (m, d) C-order array; for
    m >= 64 their first rows pair every special value with every other in each coordinate."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-3, 4, (m, d))
    c = rng.standard_normal(m) if kind == "float" else rng.random(m) < 0.5
    pairs = min(m, SPECIALS.size ** 2)
    w[:pairs] = SPECIALS[np.arange(pairs) // SPECIALS.size, None]
    if kind == "float":
        c[:pairs] = SPECIALS[np.arange(pairs) % SPECIALS.size]
    return c, w


@pytest.fixture(autouse=True)
def _quiet():
    # inf * 0 and 1e308 * 1e308 are among the products
    with np.errstate(invalid="ignore", over="ignore"):
        yield


def test_widths_cover_both_ways():
    # the widths below reach both the per-coordinate products and the broadcast
    assert 1 < SCALE_BY_COORDINATE < max(WIDTHS)
    assert any(1 < d <= SCALE_BY_COORDINATE for d in WIDTHS)


@pytest.mark.parametrize("kind", ["float", "bool"])
@pytest.mark.parametrize("d", WIDTHS)
@pytest.mark.parametrize("m", [0, 1, 64, 1001])
def test_new_array_is_the_broadcast_bytewise(m, d, kind):
    c, w = _operands(max(m, SPECIALS.size ** 2), d, kind, seed=10 * d + m)
    c, w = c[:m], w[:m]
    before = w.tobytes()
    got = scale_rows(c, w)
    want = c[:, None] * w
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert w.tobytes() == before


@pytest.mark.parametrize("kind", ["float", "bool"])
@pytest.mark.parametrize("d", WIDTHS)
def test_in_place_on_a_prefix_view_is_the_broadcast_bytewise(d, kind):
    n, w_rows = 1000, 777
    c, X = _operands(n, d, kind, seed=d)
    c = c[:w_rows]
    want = c[:, None] * X[:w_rows]
    tail = X[w_rows:].tobytes()
    view = X[:w_rows]
    assert view.flags.c_contiguous
    got = scale_rows(c, view, out=view)
    assert got is view
    assert X.flags.c_contiguous
    assert X[:w_rows].tobytes() == want.tobytes()
    # rows past the prefix are not written
    assert X[w_rows:].tobytes() == tail
