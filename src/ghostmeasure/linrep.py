"""Linear representations of the affine family and spectral diagnostics.

A sequence with relations f(2n+i) = A_i f(n) + b_i carries an obvious
linear representation.  Homogeneous (b0 = b1 = 0): the 1x1 matrices
C_i = [A_i].  Otherwise the state (f(n), 1) evolves by

    C_i = [[A_i, b_i],
           [0,   1 ]].

Writing n = (1 x1 ... xl)_2, the digits below the leading one are consumed
least-significant first:

    f(n) = L . C_{xl} C_{x(l-1)} ... C_{x1} . M,

with M = (f(1), 1) and L = (1, 0) in the 2x2 case, so evaluation through
the representation reproduces the recurrence exactly.

For the diagnostic, let Q = C0 + C1 with spectral radius rho, and rho* the
joint spectral radius of {C0, C1}.  Both matrices are upper triangular, so
rho is the largest diagonal entry of Q and rho* is the largest diagonal
entry across C0, C1 (products of triangular matrices have diagonals equal
to products of diagonals, which pins the joint growth rate).  Closed forms:

    homogeneous:    rho = A0 + A1,          rho* = max(A0, A1)
    inhomogeneous:  rho = max(A0 + A1, 2),  rho* = max(A0, A1, 1)

log2(rho/rho*) separates the measure types: 1 over the Lebesgue-type and
absolutely continuous cases (except that an inhomogeneous pair with one
A_i = 0 and the other equal to 2 gives 0), strictly between 0 and 1 for
the singular continuous cases, 0 for the pure-point ones.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError
from .sequence import AffineParams

Matrix = tuple[tuple[int, ...], ...]


class LinearRepresentation(namedtuple("LinearRepresentation", "dim c0 c1 left right")):
    """The dimension, the digit matrices c0 and c1 (Matrix) and the left and
    right vectors (int tuples)."""

    __slots__ = ()


class SpectralDiagnostic(namedtuple("SpectralDiagnostic", "rho rho_star log_ratio")):
    """The int growth rates rho and rho_star and log2(rho / rho_star)."""

    __slots__ = ()


def build_linrep(params: AffineParams) -> LinearRepresentation:
    """The representation described in the module docstring."""
    if params.homogeneous:
        return LinearRepresentation(
            dim=1,
            c0=((params.a0,),),
            c1=((params.a1,),),
            left=(1,),
            right=(params.f1,),
        )
    return LinearRepresentation(
        dim=2,
        c0=((params.a0, params.b0), (0, 1)),
        c1=((params.a1, params.b1), (0, 1)),
        left=(1, 0),
        right=(params.f1, 1),
    )


def _matvec(m: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


def eval_via_linrep(rep: LinearRepresentation, n: int) -> int:
    """f(n) through the matrix product; independent arithmetic from eval_f."""
    if n < 1:
        raise DomainError("n must be >= 1")
    v = rep.right
    for i in range(n.bit_length() - 2, -1, -1):
        v = _matvec(rep.c1 if (n >> i) & 1 else rep.c0, v)
    return sum(l * x for l, x in zip(rep.left, v))


def spectral_diagnostic(params: AffineParams) -> SpectralDiagnostic:
    """rho, rho* and log2(rho/rho*) by the family closed forms.

    rho* >= 1: AffineParams rejects all-zero coefficients, so a homogeneous
    set has max(A0, A1) >= 1; an inhomogeneous one takes max(A0, A1, 1).
    """
    if params.homogeneous:
        rho = params.a
        rho_star = max(params.a0, params.a1)
    else:
        rho = max(params.a, 2)
        rho_star = max(params.a0, params.a1, 1)
    return SpectralDiagnostic(rho, rho_star, math.log2(rho / rho_star))
