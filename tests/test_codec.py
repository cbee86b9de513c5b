import itertools

import pytest

from txtex_lab.codec import (
    canonical_decode,
    canonical_encode,
    decode_tuple,
    encode_tuple,
    pair,
    poly_decode,
    poly_encode,
    poly_eval,
    signed_int,
    signed_int_inv,
)


def test_pair_known_values():
    # (a+b)(a+b+1)/2 + b, computed by hand
    assert pair(0, 0) == 0
    assert pair(1, 2) == 8
    assert pair(5, 2) == 30


def test_encode_tuple_examples():
    assert encode_tuple([0, 0]) == 0
    assert encode_tuple([1, 2]) == 8
    assert encode_tuple([5]) == 5


def test_decode_tuple_examples():
    assert decode_tuple(8, 2) == (1, 2)
    assert decode_tuple(0, 3) == (0, 0, 0)
    assert decode_tuple(7, 1) == (7,)


def test_encode_rejects_empty():
    with pytest.raises(ValueError):
        encode_tuple([])


def test_tuple_codes_keep_their_edge_values_and_errors():
    """A 1-tuple is the code itself, unchecked; longer arities and encodings need naturals."""
    assert decode_tuple(-1, 1) == (-1,)
    with pytest.raises(ValueError, match="^unpair needs a natural$"):
        decode_tuple(-1, 2)
    with pytest.raises(ValueError, match="^arity must be >= 1$"):
        decode_tuple(5, 0)
    with pytest.raises(ValueError, match="^cannot encode an empty tuple$"):
        encode_tuple([])
    with pytest.raises(ValueError, match="^pair needs naturals$"):
        encode_tuple([-1, 0])
    with pytest.raises(ValueError, match="^tuple entries must be naturals$"):
        encode_tuple([0, -1])


def test_tuple_encode_then_decode():
    for xs in itertools.product(range(6), repeat=3):
        assert decode_tuple(encode_tuple(list(xs)), 3) == xs


def test_signed_int_examples():
    assert signed_int(0) == 0
    assert signed_int(5) == -3
    assert signed_int_inv(-1) == 1


def test_poly_code_zero_is_zero_polynomial():
    assert poly_eval(0, 9) == 0
    assert poly_decode(0) == (0,)


def test_poly_encode_examples():
    assert poly_eval(poly_encode([0, 1]), 7) == 7
    assert poly_eval(poly_encode([2]), 100) == 2


def test_poly_eval_matches_direct_evaluation():
    # brute-force oracle: direct sum of c_j * x**j
    for degree in range(4):
        for coeffs in itertools.product(range(8), repeat=degree + 1):
            code = poly_encode(list(coeffs))
            for x in (0, 1, 2, 5):
                direct = sum(c * x**j for j, c in enumerate(coeffs))
                assert poly_eval(code, x) == direct


def test_poly_decode_total():
    for code in range(500):
        coeffs = poly_decode(code)
        assert poly_encode(list(coeffs)) == code


def test_poly_eval_monotone():
    for code in range(200):
        values = [poly_eval(code, x) for x in range(10)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_canonical_codes():
    assert canonical_encode(set()) == 0
    assert canonical_encode({0, 2}) == 5
    assert canonical_decode(6) == {1, 2}


def test_canonical_roundtrip_small_universe():
    for mask in range(1 << 12):
        assert canonical_encode(canonical_decode(mask)) == mask
    universe = list(range(21))
    for size in (0, 1, 2, 3):
        for s in itertools.combinations(universe, size):
            assert canonical_decode(canonical_encode(set(s))) == set(s)
