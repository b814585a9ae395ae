"""The dense polynomial class the package used to expand p with, kept as the
tests' reference.

ShabatSolution.polynomial() must give UniPoly.from_roots(...).scale(ℓ)
.shift_constant(-1).coeffs bit for bit, and the exact nodal-U test reads its
Fraction coefficients through __call__ and derivative.  Coefficients may be
int, float, complex or Fraction; no operation converts them.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial, constant term first."""

    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        r = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            r = r * x + c
        return r

    def derivative(self) -> "UniPoly":
        if self.degree == 0:
            return UniPoly((0,))
        return UniPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return UniPoly(tuple(out))

    def scale(self, s) -> "UniPoly":
        return UniPoly(tuple(c * s for c in self.coeffs))

    def shift_constant(self, s) -> "UniPoly":
        return UniPoly((self.coeffs[0] + s,) + self.coeffs[1:])

    @classmethod
    def from_roots(cls, roots_with_mults, leading=1) -> "UniPoly":
        p = cls((leading,))
        for root, m in roots_with_mults:
            for _ in range(m):
                p = p * cls((-root, 1))
        return p
