"""The ceiling of the method, rho*_inf, extrapolated from the exact roots.

    PYTHONPATH=src python tests/ceiling.py

`max_density` returns next to the bisected bound the density at which the
deciding row, lam = 4, crosses zero (`BoundResult.root`), to about 1e-13.
The root converges as rho*_inf - a/L - b/L^2 - ..., and second-order
Richardson extrapolation from L, 2L and 4L removes the first two terms:

    R(L) = (8 root(4L) - 6 root(2L) + root(L)) / 3.

Prints R from L = 512/1024/2048 and from 1024/2048/4096, for the clamped
and the rigorous (cell-covering) rows; the spread between the two triples
says how far the expansion holds.  The bisected rho* sits up to
contraction.SEARCH_TOL/8 = 1.25e-7 below its root, too coarse for this.
"""

from harddisks.contraction import max_density

TRIPLES = ((512, 1024, 2048), (1024, 2048, 4096))


def richardson(r1: float, r2: float, r4: float) -> float:
    """The limit of roots at L, 2L and 4L with the 1/L and 1/L^2 terms removed."""
    return (8.0 * r4 - 6.0 * r2 + r1) / 3.0


def extrapolate(Ls, rigorous: bool = False) -> float:
    return richardson(*(max_density(L, rigorous=rigorous).root for L in Ls))


def main() -> None:
    print("variant,Ls,rho_inf")
    for rigorous in (False, True):
        for Ls in TRIPLES:
            variant = "rigorous" if rigorous else "clamped"
            print(f"{variant},{'/'.join(map(str, Ls))},{extrapolate(Ls, rigorous):.11f}")


if __name__ == "__main__":
    main()
