"""Little group of a Stokes 4-vector.

The stabilizer of a state (s0, s) with unit direction p = s / |s| and
degree p = |s| / s0 consists of the devices whose real-split parameters
satisfy m = n x p and

    n0 = + sqrt(1 - n^2 (1 - p_deg^2) - (n . p)^2),   m0 = -(n . m) / n0.

Since n.m = n.(n x p) = 0, m0 = 0 and the two parameter constraints
reduce to the single square root above, which also covers the null
(fully polarized, p_deg = 1) case. Each valid n in the admissible region
gives one stabilizer element; the subgroup of pure rotations about p is
the n = t p line.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation, OutOfDomain
from .lorentz import (ComplexParameter, MuellerMatrix, RealParameter,
                      k_from_nm, mueller_from_k)
from .stokes import StokesVector, cross3


@dataclass(frozen=True)
class LittleGroupElement:
    k: ComplexParameter
    n: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.n, float).reshape(3).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "n", arr)

    def matrix(self) -> MuellerMatrix:
        return mueller_from_k(self.k)


def little_element(state: StokesVector, n) -> LittleGroupElement:
    """Stabilizer element of `state` generated by the 3-vector n."""
    n = np.asarray(n, float).reshape(3)
    p_deg = state.degree
    p_hat = state.direction
    pvec = p_deg * p_hat
    m = cross3(n, pvec)
    n0_sq = 1.0 - float(n @ n) * (1.0 - p_deg * p_deg) - float(n @ pvec) ** 2
    if n0_sq < 0.0:
        raise OutOfDomain(
            f"n0^2 = {n0_sq:.3e} < 0: n outside the admissible region "
            "for this degree of polarization")
    r = RealParameter(n0=np.sqrt(n0_sq), n=n, m0=0.0, m=m)
    return LittleGroupElement(k=k_from_nm(r), n=n)


def sample_little(state: StokesVector, count, seed=None, rng=None,
                  eps=1e-12):
    """`count` stabilizer elements, deterministically for a fixed seed.

    n is rejection-sampled in the box [-R, R]^3 with
    R = 1 / sqrt(1 - p_deg^2 + eps), which contains the admissible region
    for every degree of polarization. The first element of each batch is
    taken from the pure-rotation subfamily n = t * p_hat so that the
    rotational subgroup is always represented.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    p_deg = state.degree
    # The admissible region is an ellipsoid (unbounded slab in the null
    # limit); the analytic box bound is clipped so rejection stays
    # efficient for p -> 1. Membership of every returned element is what
    # is guaranteed, not coverage of the unbounded tails.
    R = 1.0 / np.sqrt(max(1.0 - p_deg * p_deg, 0.0) + eps)
    R = min(R, 10.0)

    out = []
    t = rng.uniform(-1.0, 1.0)
    out.append(little_element(state, t * state.direction))
    budget = 1000 * count
    while len(out) < count:
        budget -= 1
        if budget < 0:
            raise OutOfDomain("rejection sampling budget exhausted")
        n = rng.uniform(-R, R, 3)
        try:
            out.append(little_element(state, n))
        except (OutOfDomain, ConstraintViolation):
            continue
    return out
