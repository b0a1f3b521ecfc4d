"""Seeded corpora, ops and correctness checks of the library workloads.

Every case draws its inputs from ``numpy.random.default_rng([seed, tag,
i])``, so a workload seed fixes the whole corpus and no two workloads
share data. The program under test only ever sees the generated pairs;
the ground truth (device parameter, expansion point ``e*``) stays with
the benchmark and is used after the timed loop to check every answer.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from muellerkit import (littlegroup, oracle, relativistic, rotation,
                        serialize)
from muellerkit.lorentz import mueller_from_k

TOL_E = 1e-6        # root vs e* up to SYMMETRIES, relative to |e*|
TOL_VALID = 1e-6    # solve_six transitivity tolerance (its default tol_l)
TOL_ROT = 1e-8      # solve_two_3d matrix vs the generating rotation
TOL_X = 1e-8        # family_4d root vs e*.x, and its residual
TOL_FIX = 1e-9      # little-group element applied to its state
TOL_ROOT = 1e-8     # |constraint residual| of a returned four-pair root
LITTLE_COUNT = 10

# solve_six recovers x and z as square roots of the lifted monomials and
# divides by them, so it loses e* when the lifted system is ill-conditioned
# or |e*.x| or |e*.z| is small against |e*|: it then raises
# NoValidCandidate (0.6% of consistent_dataset(6) draws; the benchmark's
# tests reproduce one). Six-pair corpora draw again until SIX_Q_MAX bounds
# cond(lifted system) * (|e*| / min(|e*.x|, |e*.z|))^2. Over 30,720 draws
# the smallest value at which solve_six failed was 2.9e7; 22% of draws
# exceed the limit.
SIX_Q_MAX = 1e6

# Verdicts of a check. MISS is an answer the data cannot refute that is
# not the generator's (four-pair roots are a subset of up to 8 solutions):
# the op completed, but lowers ok_frac. WRONG is an answer that fails
# validation: a failed op that makes the run incorrect.
OK, MISS, WRONG = "ok", "miss", "wrong"


def case_rng(seed, tag, i):
    return np.random.default_rng([seed, tag, i])


# Sign changes of (x, y, z, w) that no measurement can detect: the global
# sign (k and -k give one matrix) and the sign of the (z, w) block, which
# every per-pair constraint sees only squared.
SYMMETRIES = np.array([[1, 1, 1, 1], [-1, -1, -1, -1],
                       [1, 1, -1, -1], [-1, -1, 1, 1]], float)


def equivalent(e, e_star):
    """True when e equals e* up to SYMMETRIES, within TOL_E * |e*|."""
    es = np.asarray(e_star, float)
    d = np.linalg.norm(np.asarray(e, float) - SYMMETRIES * es, axis=1).min()
    return bool(d <= TOL_E * max(1.0, float(np.linalg.norm(es))))


def roots_verdict(roots, e_star, pairs):
    """OK if a root is e* (see `equivalent`), MISS if every root solves
    all the pair constraints, else WRONG."""
    if any(equivalent(e, e_star) for e in roots):
        return OK
    qs = [relativistic.quad_coeffs(p) for p in pairs]
    valid = all(
        abs(relativistic.constraint_residual(
            q, relativistic.ExpansionCoeffs(*map(float, e)))) <= TOL_ROOT
        for e in roots for q in qs)
    return MISS if roots and valid else WRONG


def six_conditioning(e_star, pairs):
    """cond(lifted 6x6 system) * (|e*| / min(|e*.x|, |e*.z|))^2."""
    e = e_star.as_array()
    lifted = np.array([relativistic.quad_coeffs(p).as_row()[:6]
                       for p in pairs])
    small = min(abs(e[0]), abs(e[2]))
    if small == 0.0:
        return np.inf
    return float(np.linalg.cond(lifted)) * (np.linalg.norm(e) / small) ** 2


def six_dataset(rng):
    """consistent_dataset(6) drawn until it is within SIX_Q_MAX."""
    while True:
        k, e_star, pairs = oracle.consistent_dataset(6, rng=rng)
        if six_conditioning(e_star, pairs) <= SIX_Q_MAX:
            return k, e_star, pairs


def digest(trees):
    """sha256 over the canonical JSON of every case (byte-stable)."""
    h = hashlib.sha256()
    for tree in trees:
        h.update(serialize.dumps(tree).encode())
    return h.hexdigest()


# ------------------------------------------------------------- four_pair

@dataclass(frozen=True)
class FourCase:
    e_star: relativistic.ExpansionCoeffs
    pairs: list


class FourPair:
    """One ``solve_four`` at its defaults on a consistent 4-pair dataset."""

    name = "four_pair"
    tag = 4
    corpus_cases = 640
    trace_cases = 8
    ops_per_case = 1

    def make_case(self, seed, i):
        _, e_star, pairs = oracle.consistent_dataset(
            4, rng=case_rng(seed, self.tag, i))
        return FourCase(e_star, pairs)

    def tree(self, case):
        return serialize.dataset_to_json(case.pairs)

    def op(self, case):
        return relativistic.solve_four(case.pairs)

    def check(self, case, report):
        return roots_verdict([e.as_array() for e, _ in report.roots],
                             case.e_star.as_array(), case.pairs)


# ----------------------------------------------------------- closed_form

@dataclass(frozen=True)
class ClosedCase:
    k_rot: object
    rot_pairs: tuple
    e_star: relativistic.ExpansionCoeffs
    six_pairs: list
    state: object
    little_seed: int


class ClosedForm:
    """The Newton-free solvers on one seeded case.

    ``solve_two_3d`` on a rotation dataset, ``solve_six`` on a consistent
    6-pair dataset within SIX_Q_MAX, ``family_4d`` of its first pair at the generator's
    (y, z, w), and ten little-group elements of a random state.
    """

    name = "closed_form"
    tag = 2
    corpus_cases = 512
    trace_cases = 32
    ops_per_case = 1

    def make_case(self, seed, i):
        rng = case_rng(seed, self.tag, i)
        k_rot, p1, p2 = oracle.rotation_dataset(rng=rng)
        _, e_star, six = six_dataset(rng)
        state = oracle.random_stokes(rng)
        little_seed = int(rng.integers(2 ** 31))
        return ClosedCase(k_rot, (p1, p2), e_star, six, state, little_seed)

    def tree(self, case):
        return {"rotation": serialize.dataset_to_json(case.rot_pairs),
                "six": serialize.dataset_to_json(case.six_pairs),
                "state": serialize.stokes_to_json(case.state),
                "little_seed": case.little_seed}

    def op(self, case):
        e = case.e_star
        return (rotation.solve_two_3d(*case.rot_pairs),
                relativistic.solve_six(case.six_pairs),
                relativistic.family_4d(case.six_pairs[0], e.y, e.z, e.w),
                littlegroup.sample_little(case.state, LITTLE_COUNT,
                                          seed=case.little_seed))

    def check(self, case, out):
        sol2, six, fam, elements = out
        truth = mueller_from_k(case.k_rot).m
        rot_ok = np.max(np.abs(sol2.matrix().m - truth)) <= TOL_ROT
        es = case.e_star.as_array()
        six_ok = any(c.worst <= TOL_VALID
                     and equivalent(c.e.as_array(), es)
                     for c in six.candidates)
        x = case.e_star.x
        fam_ok = any(abs(e.x - x) <= TOL_X * max(1.0, abs(x)) and res <= TOL_X
                     for e, _, res in fam)
        s = case.state.as_array()
        little_ok = len(elements) == LITTLE_COUNT and all(
            np.max(np.abs(el.matrix().m @ s - s)) <= TOL_FIX
            for el in elements)
        return OK if rot_ok and six_ok and fam_ok and little_ok else WRONG
