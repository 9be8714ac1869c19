"""Torsion above degree 1 against closed forms: products by Künneth,
suspensions by the suspension shift and Moore spaces by construction, the
expected groups computed here from the factors' groups and never by an
elimination, so a fault that the oracle and the Mayer-Vietoris route
share cannot hide.  Each example runs on the oracle, the one-field route
and Mayer-Vietoris with greedy and with random fields."""
from __future__ import annotations

import functools
import math

import pytest

from morsemv import (
    HomologyResult,
    build_complex,
    build_decomposition,
    build_xtilde,
    check_iso_simplicial,
    check_main_iso,
    greedy_gvf,
    homology,
    mv_homology,
    simplicial_homology,
    thom_smale_complex,
)
from conftest import RP2_FACES, expected_homology, moore, product, suspension


def cyclic_orders(h: HomologyResult, q: int) -> list[int]:
    """H_q as the orders of cyclic summands, 0 for Z."""
    return [0] * h.betti(q) + list(h.torsion(q))


def group(orders: list[int]) -> tuple[int, tuple[int, ...]]:
    """(betti, invariant factors) of the sum of cyclic groups of these
    orders (0 for Z, 1 for the trivial group): the k-th largest invariant
    factor takes the k-th largest power of every prime."""
    powers: dict[int, list[int]] = {}
    for n in orders:
        prime = 2
        while n > 1:
            power = 1
            while n % prime == 0:
                n, power = n // prime, power * prime
            if power > 1:
                powers.setdefault(prime, []).append(power)
            prime += 1
    factors = [1] * max(map(len, powers.values()), default=0)
    for ps in powers.values():
        for k, power in enumerate(sorted(ps, reverse=True)):
            factors[k] *= power
    return orders.count(0), tuple(sorted(factors))


def kunneth(hx: HomologyResult, hy: HomologyResult) -> HomologyResult:
    """H_n(X x Y) = sum over i + j = n of H_i (x) H_j, plus the sum over
    i + j = n - 1 of Tor(H_i, H_j) (Hatcher, 3.B): Z/a (x) Z/b =
    Tor(Z/a, Z/b) = Z/gcd(a, b), with Z as Z/0 in the tensor product and
    Tor vanishing on Z."""
    groups = []
    for n in range(len(hx) + len(hy) - 1):
        tensor = [math.gcd(a, b) for i in range(n + 1)
                  for a in cyclic_orders(hx, i) for b in cyclic_orders(hy, n - i)]
        tor = [math.gcd(a, b) for i in range(n)
               for a in cyclic_orders(hx, i) for b in cyclic_orders(hy, n - 1 - i) if a and b]
        groups.append(group(tensor + tor))
    return HomologyResult(groups)


def suspended(h: HomologyResult) -> HomologyResult:
    """The groups of the suspension of a connected or disconnected space:
    reduced H_{n+1} of the suspension is reduced H_n, and it is connected."""
    betti, torsion = h[0]
    return HomologyResult([(1, ()), (betti - 1, torsion), *h.groups[1:]])


def rp2_by_rp2():
    """RP^2 x RP^2 cut along a cover of the first factor: the star of
    vertex 1 and the Moebius band of the other faces."""
    rp2 = build_complex(RP2_FACES)
    star = [f for f in RP2_FACES if "1" in f.split()]
    band = [f for f in RP2_FACES if "1" not in f.split()]
    pieces = (product(build_complex(faces), rp2) for faces in (star, band))
    h = expected_homology("rp2")
    return (product(rp2, rp2), *pieces), kunneth(h, h)


def suspended_rp2():
    return suspension(build_complex(RP2_FACES)), suspended(expected_homology("rp2"))


def moore_space(k: int):
    return moore(k), HomologyResult([(1, ()), (0, (k,))])


def suspended_moore_space(k: int):
    x, _, _ = moore(k)
    return suspension(x), suspended(HomologyResult([(1, ()), (0, (k,))]))


EXAMPLES = {
    "RP2 x RP2": rp2_by_rp2,
    "suspension of RP2": suspended_rp2,
    **{f"M(Z/{k}, 1)": functools.partial(moore_space, k) for k in (3, 4, 5)},
    **{f"suspension of M(Z/{k}, 1)": functools.partial(suspended_moore_space, k)
       for k in (3, 4, 5)},
}


def test_closed_forms_themselves():
    """The closed forms above say what the textbooks say."""
    z, z2 = (1, ()), (0, (2,))
    assert kunneth(expected_homology("rp2"), expected_homology("rp2")) == HomologyResult(
        [z, (0, (2, 2)), z2, z2])
    assert group([0, 4, 6, 1, 9]) == (1, (6, 36))
    assert group([3, 5]) == (0, (15,))
    assert suspended(expected_homology("rp2")) == HomologyResult([z, (0, ()), z2])
    assert suspended(expected_homology("two_points")) == HomologyResult([z, z])


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_every_route_gives_the_closed_form(name):
    (x, a, b), want = EXAMPLES[name]()
    assert simplicial_homology(x) == want
    assert homology(thom_smale_complex(greedy_gvf(x))) == want
    assert mv_homology(build_decomposition(x, a, b)) == want
    for seed in (1, 2):
        assert mv_homology(build_decomposition(x, a, b, strategy="random", seed=seed)) == want


@pytest.mark.parametrize("strategy", ["lexicographic", "random"])
@pytest.mark.parametrize("name", ["suspension of RP2", "suspension of M(Z/3, 1)"])
def test_verify_passes_on_suspensions(name, strategy):
    (x, a, b), _ = EXAMPLES[name]()
    xt = build_xtilde(build_decomposition(x, a, b, strategy=strategy, seed=7))
    assert check_iso_simplicial(xt).ok
    assert check_main_iso(xt).ok
