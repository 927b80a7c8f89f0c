"""Tests for repro.types: ResourceVector arithmetic and ceil_div."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.types import (
    RESOURCE_ORDER,
    ResourceType,
    ResourceVector,
    ceil_div,
)


class TestResourceType:
    def test_three_types(self):
        assert len(list(ResourceType)) == 3

    def test_resource_order_is_deterministic(self):
        assert RESOURCE_ORDER == (
            ResourceType.CPU,
            ResourceType.RAM,
            ResourceType.STORAGE,
        )

    def test_identity_hash_keeps_lookups_and_pickling(self):
        """Members hash by identity; every lookup still finds the member."""
        table = {rtype: rtype.value for rtype in ResourceType}
        members = set(ResourceType)
        for rtype in ResourceType:
            assert hash(rtype) == object.__hash__(rtype)
            assert table[rtype] == rtype.value
            assert rtype in members
            assert ResourceType(rtype.value) is rtype
            assert pickle.loads(pickle.dumps(rtype)) is rtype
        assert ResourceType("cpu") is ResourceType.CPU
        assert ResourceType["RAM"] is ResourceType.RAM


class TestResourceVector:
    def test_get_per_type(self):
        v = ResourceVector(cpu=1, ram=2, storage=3)
        assert v.get(ResourceType.CPU) == 1
        assert v.get(ResourceType.RAM) == 2
        assert v.get(ResourceType.STORAGE) == 3

    def test_replace_returns_new_vector(self):
        v = ResourceVector(1, 2, 3)
        w = v.replace(ResourceType.RAM, 9)
        assert w == ResourceVector(1, 9, 3)
        assert v == ResourceVector(1, 2, 3)

    def test_addition_and_subtraction(self):
        a = ResourceVector(1, 2, 3)
        b = ResourceVector(4, 5, 6)
        assert a + b == ResourceVector(5, 7, 9)
        assert b - a == ResourceVector(3, 3, 3)

    def test_iteration_order(self):
        assert list(ResourceVector(7, 8, 9)) == [7, 8, 9]

    def test_fits_within(self):
        assert ResourceVector(1, 1, 1).fits_within(ResourceVector(1, 2, 3))
        assert not ResourceVector(2, 1, 1).fits_within(ResourceVector(1, 2, 3))

    def test_is_valid_rejects_negative(self):
        assert ResourceVector(0, 0, 0).is_valid()
        assert not ResourceVector(-1, 0, 0).is_valid()

    def test_is_zero(self):
        assert ResourceVector().is_zero()
        assert not ResourceVector(storage=1).is_zero()

    def test_total(self):
        assert ResourceVector(1, 2, 3).total() == 6

    def test_dict_roundtrip(self):
        v = ResourceVector(4, 5, 6)
        d = v.as_dict()
        assert d == {"cpu": 4, "ram": 5, "storage": 6}
        assert ResourceVector.from_mapping(
            {ResourceType(k): val for k, val in d.items()}
        ) == v

    def test_from_mapping_defaults_missing_to_zero(self):
        assert ResourceVector.from_mapping({ResourceType.RAM: 5}) == ResourceVector(
            0, 5, 0
        )

    @given(
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    )
    def test_add_sub_roundtrip_property(self, c, r, s):
        v = ResourceVector(c, r, s)
        w = ResourceVector(s, c, r)
        assert (v + w) - w == v


class TestCeilDiv:
    @pytest.mark.parametrize(
        "n, d, expected",
        [(0, 4, 0), (1, 4, 1), (4, 4, 1), (5, 4, 2), (128, 64, 2), (129, 64, 3)],
    )
    def test_examples(self, n, d, expected):
        assert ceil_div(n, d) == expected

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            ceil_div(1, 0)

    def test_rejects_negative_numerator(self):
        with pytest.raises(ValueError):
            ceil_div(-1, 4)

    @given(st.integers(0, 10**9), st.integers(1, 10**6))
    def test_matches_float_ceiling(self, n, d):
        result = ceil_div(n, d)
        assert (result - 1) * d < n or n == 0
        assert result * d >= n
