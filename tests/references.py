"""Reference formulas that more than one test module checks the package
against, each computed another way than the package computes it."""

from tablezeta.exact import fmat_det


def sylvester_discriminant(f):
    "disc f = (-1)^(n(n-1)/2) Res(f, f') for a monic f of degree n, from the Sylvester matrix."
    n = len(f) - 1
    a = list(reversed(f))
    b = list(reversed([k * c for k, c in enumerate(f)][1:]))
    size = 2 * n - 1
    rows = [[0] * i + a + [0] * (size - len(a) - i) for i in range(n - 1)]
    rows += [[0] * i + b + [0] * (size - len(b) - i) for i in range(n)]
    return (-1) ** (n * (n - 1) // 2) * int(fmat_det(rows))
