"""The record contract: every record type of the package is an immutable
named tuple, built by keyword, whose array fields are its own read-only
copies, sharing no memory with the caller."""

import copy
import pickle
import sys

import numpy as np
import pytest

import muellerkit.cli  # noqa: F401  (loads every package module)
from muellerkit import lorentz
from muellerkit import (ComplexParameter, DiagResult, ExpansionCoeffs,
                        Family3DSolution, GibbsVector, LittleGroupElement,
                        LorentzReport, MeasurementPair, MuellerKitError,
                        MuellerMatrix, QuadCoeffs, RealParameter,
                        SignatureReport, StokesVector, pair_geometry)
from muellerkit.relativistic import Candidate, SixReport


def _records():
    """(record, {array field: the writeable caller array it was built
    from}) for each of the 16 record types, every one built by keyword."""
    s, n, m = np.array([0.3, 0.2, 0.1]), np.array([0.1, 0.2, 0.3]), np.zeros(3)
    k = np.array([1.0, 0.0, 0.0, 0.0], complex)
    q, L = np.array([0.1j, 0.0, 0.0]), np.eye(4)
    n_little, n_rot = np.array([0.0, 0.1, 0.0]), np.array([0.0, 0.0, 1.0])
    v = StokesVector(s0=1.0, s=s)
    pair = MeasurementPair(input=v, output=StokesVector(s0=1.0, s=s[::-1]))
    diag = DiagResult(F=-1.0, G=2.0, phi=0.5)
    e = ExpansionCoeffs(x=1.0, y=0.0, z=0.0, w=0.0)
    cand = Candidate(e=e, per_pair_residuals=[0.0], k_spread=0.0,
                     k_list=[ComplexParameter(k)])
    u = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    return [
        (v, {"s": s}),
        (pair, {}),
        (pair_geometry(pair), {"Avec": None, "Bvec": None, "cross": None}),
        (ComplexParameter(k=k), {"k": k}),
        (RealParameter(n0=1.0, n=n, m0=0.0, m=m), {"n": n, "m": m}),
        (MuellerMatrix(m=L), {"m": L}),
        (GibbsVector(q=q), {"q": q}),
        (LorentzReport(ok=True, ortho_residual=0.0, det_residual=0.0,
                       m00=1.0), {}),
        (diag, {}),
        (SignatureReport(xy=diag, zw=diag, signs=(-1, 1, 1, -1),
                         boundary=False, definite_xy=False,
                         definite_zw=False), {}),
        (e, {}),
        (QuadCoeffs(a=1.0, b=0.0, c=1.0, alpha=0.0, beta=0.0, sigma=0.0),
         {}),
        (Family3DSolution(gamma=0.0, alpha=0.0, beta=1.0, n0=1.0, n=n_rot),
         {"n": n_rot}),
        (LittleGroupElement(k=ComplexParameter(k), n=n_little),
         {"n": n_little}),
        (cand, {}),
        (SixReport(u=u, candidates=[cand], cramer={"det": 1.0},
                   rank1_defects=(0.0, 0.0), condition=1.0,
                   shared_solution=True), {"u": u}),
    ]


NAMES = [type(rec).__name__ for rec, _ in _records()]


@pytest.mark.parametrize("i", range(len(NAMES)), ids=NAMES)
def test_record_is_an_immutable_named_tuple(i):
    rec, _ = _records()[i]
    assert isinstance(rec, tuple) and hasattr(rec, "_fields")
    assert repr(rec).startswith(NAMES[i] + "(")
    assert not hasattr(rec, "__dict__")
    for name in type(rec)._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.cached = 1.0


@pytest.mark.parametrize("i", range(len(NAMES)), ids=NAMES)
def test_array_fields_are_read_only_and_own_their_memory(i):
    rec, arrays = _records()[i]
    for name, caller in arrays.items():
        field = getattr(rec, name)
        assert not field.flags.writeable
        with pytest.raises(ValueError):
            field[0] = 0.0
        if caller is not None:
            assert not np.shares_memory(field, caller)
            before = field.copy()
            caller[...] = 0.5 * caller + 0.01  # stays a valid field value
            assert np.array_equal(field, before)
            # _replace builds through the same checks
            replaced = getattr(rec._replace(**{name: caller}), name)
            assert not replaced.flags.writeable
            assert not np.shares_memory(replaced, caller)


def test_a_record_copies_a_read_only_caller_array():
    # read-only memory is copied as well: a field is the record's own array
    s, L = np.array([0.3, 0.2, 0.1]), np.eye(4)
    k = L[0].astype(complex)
    for a in (s, k, L):
        a.setflags(write=False)
    fields = [(StokesVector(1.0, s).s, s), (ComplexParameter(k).k, k),
              (MuellerMatrix(L).m, L), (RealParameter(1.0, s, 0.0, s).n, s),
              (Family3DSolution(0.0, 0.0, 1.0, 1.0, s).n, s),
              (LittleGroupElement(ComplexParameter(k), s).n, s)]
    for field, caller in fields:
        assert not field.flags.writeable and field.flags.c_contiguous
        assert field.base is None and not np.shares_memory(field, caller)


def test_records_over_a_read_only_block_copy_it_once():
    block = np.arange(12.0).reshape(3, 4).astype(complex)
    block.setflags(write=False)
    ks = lorentz.records(ComplexParameter, block)
    assert [kp.k.tolist() for kp in ks] == block.tolist()
    assert not any(np.shares_memory(kp.k, block) for kp in ks)
    own = ks[0].k.base  # one copy, which every record views
    assert all(kp.k.base is own for kp in ks) and not own.flags.writeable


def test_the_cases_cover_every_record_type_of_the_package():
    found = {name for mod_name, mod in sys.modules.items()
             if mod_name.startswith("muellerkit.")
             for name, obj in vars(mod).items()
             if isinstance(obj, type) and issubclass(obj, tuple)
             and obj.__module__ == mod_name}
    assert found == set(NAMES) and len(NAMES) == 16


def test_stokes_validate_is_a_flag_not_a_field():
    with pytest.raises(MuellerKitError, match="p > 1"):
        StokesVector(s0=1.0, s=[2.0, 0.0, 0.0])
    v = StokesVector(s0=1.0, s=[2.0, 0.0, 0.0], validate=False)
    assert v.degree == 2.0
    assert StokesVector._fields == ("s0", "s")
    s0, s = v
    assert s0 == 1.0 and s is v.s
    assert not hasattr(v, "validate")
    # a copy of an unchecked vector is not checked again
    for c in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(c) is StokesVector and c.s0 == 1.0
        assert np.array_equal(c.s, v.s) and not c.s.flags.writeable
