"""Orientation and height helpers shared by the tests."""

from itertools import product

from rmx import ar_quiver as ar


def all_orientations(cd):
    """Yield the 2^(n-1) orientations lazily, the diagram's own edges first."""
    for flips in product((False, True), repeat=len(cd.edges)):
        yield ar.orient(cd, [(v, u) if f else (u, v)
                             for (u, v), f in zip(cd.edges, flips)])


def shift_height(xi, even):
    """xi shifted by an even integer: a height function of the same quiver."""
    assert even % 2 == 0, "height functions shift by even integers only"
    return tuple(x + even for x in xi)
