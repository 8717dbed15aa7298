"""Unit tests for geographic hashing of type names."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.naming import FieldBounds, hash_to_coordinate


def bounds_strategy():
    coordinate = st.floats(min_value=-1000.0, max_value=1000.0,
                           allow_nan=False)
    return st.tuples(coordinate, coordinate, coordinate, coordinate) \
        .filter(lambda t: t[0] + 1e-3 < t[2] and t[1] + 1e-3 < t[3]) \
        .map(lambda t: FieldBounds(t[0], t[1], t[2], t[3]))


class TestFieldBounds:
    def test_properties(self):
        bounds = FieldBounds(0.0, 0.0, 10.0, 4.0)
        assert bounds.width == 10.0
        assert bounds.height == 4.0
        assert bounds.contains((5.0, 2.0))
        assert not bounds.contains((11.0, 2.0))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            FieldBounds(5.0, 0.0, 5.0, 4.0)

    def test_shrunk_keeps_margin(self):
        bounds = FieldBounds(0.0, 0.0, 10.0, 10.0).shrunk(1.0)
        assert bounds.x_lo == 1.0 and bounds.x_hi == 9.0

    def test_shrunk_noop_when_margin_too_large(self):
        bounds = FieldBounds(0.0, 0.0, 2.0, 2.0)
        assert bounds.shrunk(1.5) == bounds

    def test_shrunk_rejects_negative_margin(self):
        # Regression: a negative margin grew the bounds past the field,
        # so "fire" hashed to (1.89, 9.52) in a 0..7 field.
        with pytest.raises(ValueError):
            FieldBounds(0.0, 0.0, 7.0, 7.0).shrunk(-3.0)


class TestHash:
    BOUNDS = FieldBounds(0.0, 0.0, 20.0, 10.0)

    def test_deterministic(self):
        assert hash_to_coordinate("fire", self.BOUNDS) == \
            hash_to_coordinate("fire", self.BOUNDS)

    def test_always_inside_bounds(self):
        for name in ("fire", "tracker", "CAR", "x" * 100, ""):
            assert self.BOUNDS.contains(
                hash_to_coordinate(name, self.BOUNDS))

    def test_different_names_spread(self):
        points = {hash_to_coordinate(f"type-{i}", self.BOUNDS)
                  for i in range(50)}
        assert len(points) == 50

    def test_directory_points_are_pinned(self):
        # Every mote must keep hashing a type to the same point: these
        # are the points of the SHA-256 of ":<name>".
        assert hash_to_coordinate("fire", self.BOUNDS) == \
            (7.525715943783974, 9.630121998423153)
        assert hash_to_coordinate("tracker", self.BOUNDS) == \
            (4.789200076113634, 1.589190414735476)


class TestHashProperties:
    """Property coverage: every (name, field) stays in-field."""

    @given(name=st.text(max_size=64), bounds=bounds_strategy())
    def test_hashed_coordinate_always_in_field(self, name, bounds):
        assert bounds.contains(hash_to_coordinate(name, bounds))

    @given(name=st.text(max_size=64), bounds=bounds_strategy())
    def test_hash_is_a_pure_function(self, name, bounds):
        # Nodes hash with no coordination; any disagreement would split
        # the directory.
        assert hash_to_coordinate(name, bounds) == \
            hash_to_coordinate(name, bounds)

    @given(bounds=bounds_strategy())
    def test_shrunk_bounds_still_contain_hashes(self, bounds):
        shrunk = bounds.shrunk(min(bounds.width, bounds.height) / 4.0)
        point = hash_to_coordinate("tracker", shrunk)
        assert shrunk.contains(point)
        assert bounds.contains(point)
