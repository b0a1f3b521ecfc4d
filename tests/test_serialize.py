import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from muellerkit import mueller_from_k, serialize as S
from muellerkit.oracle import random_lorentz, random_pairs


def test_float_formatting_lossless():
    vals = [1.0, -0.1, 1e-300, 1.7976931348623157e308, np.pi,
            0.1 + 0.2, 3.0, 1e17, 5e-324, -0.0]
    for v in vals:
        back = json.loads(S.dumps(v))
        assert type(back) is float and back.hex() == v.hex()


@example(0.0)
@example(-0.0)
@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_floats_survive_dumps(x):
    # bare, in a list, a dict, a record and an ndarray: a float reads back
    # as a float of the same value and the same sign, zero included
    from muellerkit import DiagResult
    trees = [(x, lambda t: t), ([x], lambda t: t[0]),
             ({"x": x}, lambda t: t["x"]),
             (DiagResult(F=x, G=1.0, phi=0.0), lambda t: t["F"]),
             (np.array([[x]]), lambda t: t[0][0]),
             (np.float64(x), lambda t: t)]
    for tree, pick in trees:
        back = pick(json.loads(S.dumps(tree)))
        assert type(back) is float and back == x
        assert math.copysign(1, back) == math.copysign(1, x)


def test_dataset_round_trip_bytes():
    rng = np.random.default_rng(0)
    k = random_lorentz(rng=rng)
    pairs = random_pairs(k, 5, rng)
    t1 = S.dumps(S.dataset_to_json(pairs, {"kind": "test"}))
    pairs2, meta = S.dataset_from_json(json.loads(t1))
    t2 = S.dumps(S.dataset_to_json(pairs2, meta))
    assert t1 == t2
    for a, b in zip(pairs, pairs2):
        assert a.input.s0 == b.input.s0
        assert np.all(a.input.s == b.input.s)
        assert a.output.s0 == b.output.s0
        assert np.all(a.output.s == b.output.s)


def test_k_and_matrix_round_trip():
    k = random_lorentz(seed=4)
    k2 = S.k_from_json(json.loads(S.dumps(S.k_to_json(k))))
    assert np.all(k2.k == k.k)
    L = mueller_from_k(k)
    L2 = S.mueller_from_json(json.loads(S.dumps(S.mueller_to_json(L))))
    assert np.all(L2.m == L.m)


def test_dumps_is_valid_json():
    text = S.dumps({"a": 0.1, "b": [1.5, 2], "c": {"d": -0.0}})
    assert json.loads(text) == {"a": 0.1, "b": [1.5, 2], "c": {"d": -0.0}}


def test_records_are_written_as_objects_of_their_fields():
    from muellerkit import DiagResult, SignatureReport
    d = DiagResult(F=-1.0, G=2.0, phi=0.5)
    rep = SignatureReport(xy=d, zw=d, signs=(1, -1, 0, 1), boundary=True,
                          definite_xy=False, definite_zw=True)
    as_dict = {"F": -1.0, "G": 2.0, "phi": 0.5}
    assert S.dumps([rep]) == S.dumps([{
        "xy": as_dict, "zw": as_dict, "signs": [1, -1, 0, 1],
        "boundary": True, "definite_xy": False, "definite_zw": True}])
    assert S.dumps((1.0, 2)) == S.dumps([1.0, 2])  # a plain tuple: a list


def test_a_string_that_looks_like_a_float_tag_stays_a_string():
    # a string value stays a JSON string whatever its prefix
    tree = {"s": "\x01f:1", "n": 1.5}
    text = S.dumps(tree)
    assert json.loads(text) == tree
    assert text == '{\n  "s": "\\u0001f:1",\n  "n": 1.5\n}\n'


def test_layout_is_that_of_json_dumps_indent_2():
    tree = {"a": [], "b": {}, "c": [[], {"d": [1, None, True, "x"]}],
            "e": np.arange(0.5, 4.0).reshape(2, 2), "f": np.int64(-3),
            "g": (np.float64(0.25), np.float32(0.5)), "\u00e9\n": "\u00e9"}
    plain = {**tree, "e": [[0.5, 1.5], [2.5, 3.5]], "f": -3,
             "g": [0.25, 0.5]}
    assert S.dumps(tree) == json.dumps(plain, indent=2) + "\n"
    assert S.dumps([]) == "[]\n" and S.dumps({}) == "{}\n"
    assert S.dumps(0.1) == "0.1\n"


def test_a_non_finite_float_raises_rather_than_writing_invalid_json():
    for bad in (float("inf"), -np.inf, np.float64("nan"), np.float32("inf")):
        for tree in (bad, [1.0, bad], {"s": {"x": [bad]}}, np.array([bad])):
            with pytest.raises(ValueError, match="non-finite number"):
                S.dumps(tree)
    big = [1.7976931348623157e308, -1e-300]  # the finite extremes pass
    assert json.loads(S.dumps(big)) == big
