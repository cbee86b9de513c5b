"""Properties: the pairing, tuple and signed-integer codes are bijections."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from txtex_lab.codec import decode_tuple, encode_tuple, pair, signed_int, signed_int_inv, unpair

naturals = st.integers(min_value=0, max_value=2**64)


@given(naturals, naturals)
def test_unpair_inverts_pair(a, b):
    assert unpair(pair(a, b)) == (a, b)


@given(naturals)
def test_pair_inverts_unpair(n):
    assert pair(*unpair(n)) == n


@given(naturals, st.integers(min_value=1, max_value=6))
def test_decode_tuple_is_a_bounded_inverse(n, k):
    xs = decode_tuple(n, k)
    assert len(xs) == k
    assert all(0 <= x <= n for x in xs)
    assert encode_tuple(xs) == n


@given(st.lists(naturals, min_size=1, max_size=6))
def test_decode_tuple_inverts_encode_tuple(xs):
    assert decode_tuple(encode_tuple(xs), len(xs)) == tuple(xs)


@given(naturals, st.integers(min_value=1, max_value=6))
def test_tuple_codes_nest_pairs(n, k):
    """The inline arithmetic is right-nested pairing: one unpair per coordinate but the last."""
    xs, rest = [], n
    for _ in range(k - 1):
        x, rest = unpair(rest)
        xs.append(x)
    assert decode_tuple(n, k) == (*xs, rest)
    code = rest
    for x in reversed(xs):
        code = pair(x, code)
    assert encode_tuple(decode_tuple(n, k)) == code


@given(naturals)
def test_signed_int_inv_inverts_signed_int(n):
    assert signed_int_inv(signed_int(n)) == n


@given(st.integers(min_value=-(2**64), max_value=2**64))
def test_signed_int_inverts_signed_int_inv(z):
    assert signed_int(signed_int_inv(z)) == z
