"""Torsion above degree 1 against closed forms: products by Künneth, joins
and cones by Milnor's join formula, suspensions by the suspension shift
and Moore spaces by construction, the expected groups computed here from
the factors' groups and never by an elimination, so a fault that the
oracle and the Mayer-Vietoris route share cannot hide.  Each example runs on the oracle, the one-field route
and Mayer-Vietoris with greedy and with random fields."""
from __future__ import annotations

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsemv import (
    HomologyResult,
    SimplicialComplex,
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
from conftest import (
    RP2_FACES,
    cone,
    corpus_complexes,
    expected_homology,
    join,
    moore,
    product,
    suspension,
)

POINT = HomologyResult([(1, ())])


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


def kunneth_sums(ox: list[list[int]], oy: list[list[int]]) -> list[list[int]]:
    """Degree n of the sum over i + j = n of X_i (x) Y_j, plus the sum over
    i + j = n - 1 of Tor(X_i, Y_j), every group given by the orders of its
    cyclic summands, degree by degree: Z/a (x) Z/b = Tor(Z/a, Z/b) =
    Z/gcd(a, b), with Z as Z/0 in the tensor product and Tor vanishing on
    Z."""
    sums = []
    for n in range(len(ox) + len(oy) - 1):
        tensor = [math.gcd(a, b) for i in range(n + 1) if i < len(ox) and n - i < len(oy)
                  for a in ox[i] for b in oy[n - i]]
        tor = [math.gcd(a, b) for i in range(n) if i < len(ox) and n - 1 - i < len(oy)
               for a in ox[i] for b in oy[n - 1 - i] if a and b]
        sums.append(tensor + tor)
    return sums


def kunneth(hx: HomologyResult, hy: HomologyResult) -> HomologyResult:
    """H_n(X x Y) is degree n of the Künneth sums of the groups of X and Y
    (Hatcher, 3.B)."""
    orders = lambda h: [cyclic_orders(h, q) for q in range(len(h))]
    return HomologyResult(map(group, kunneth_sums(orders(hx), orders(hy))))


def joined(hx: HomologyResult, hy: HomologyResult) -> HomologyResult:
    """The groups of the join X * Y of nonempty X and Y: it is connected,
    and reduced H_{n+1}(X * Y) is degree n of the Künneth sums of the
    reduced groups (Milnor, "Construction of universal bundles II",
    1956), which drop one Z from H_0."""
    reduced = lambda h: [cyclic_orders(h, 0)[1:]] + [cyclic_orders(h, q) for q in range(1, len(h))]
    return HomologyResult([(1, ()), *map(group, kunneth_sums(reduced(hx), reduced(hy)))])


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


def rp2_by_circle():
    """RP^2 x S^1 cut by the star of the vertex 1|v0."""
    circle = corpus_complexes()["circle"]
    return (star_cut(product(build_complex(RP2_FACES), circle), "1|v0"),
            kunneth(expected_homology("rp2"), expected_homology("circle")))


def suspended_rp2():
    return suspension(build_complex(RP2_FACES)), suspended(expected_homology("rp2"))


def star_cut(x: SimplicialComplex, v: str):
    """x cut by the star of the vertex v and the faces without v."""
    star = [s.vertices for s in x.maximal_simplices if v in s.vertices]
    rest = [s.vertices for s in x.maximal_simplices if v not in s.vertices]
    return x, build_complex(star), build_complex(rest)


def cone_on_rp2():
    rp2 = build_complex(RP2_FACES)
    return star_cut(cone(rp2), "1"), joined(expected_homology("rp2"), POINT)


def rp2_join_circle():
    circle = corpus_complexes()["circle"]
    return (star_cut(join(build_complex(RP2_FACES), circle), "1"),
            joined(expected_homology("rp2"), expected_homology("circle")))


def moore_space(k: int):
    return moore(k), HomologyResult([(1, ()), (0, (k,))])


def suspended_moore_space(k: int):
    x, _, _ = moore(k)
    return suspension(x), suspended(HomologyResult([(1, ()), (0, (k,))]))


EXAMPLES = {
    "RP2 x RP2": rp2_by_rp2,
    "cone on RP2": cone_on_rp2,
    "RP2 * S1": rp2_join_circle,
    "RP2 x S1": rp2_by_circle,
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
    rp2, circle = expected_homology("rp2"), expected_homology("circle")
    assert joined(rp2, POINT) == HomologyResult([z])
    assert joined(rp2, circle) == HomologyResult([z, (0, ()), (0, ()), z2])
    assert joined(circle, circle) == expected_homology("sphere3")
    assert joined(expected_homology("two_points"), rp2) == suspended(rp2)
    assert len(join(build_complex(RP2_FACES), corpus_complexes()["circle"])) == 223


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_every_route_gives_the_closed_form(name):
    (x, a, b), want = EXAMPLES[name]()
    assert simplicial_homology(x) == want
    assert homology(thom_smale_complex(greedy_gvf(x))) == want
    assert mv_homology(build_decomposition(x, a, b)) == want
    for seed in (1, 2):
        assert mv_homology(build_decomposition(x, a, b, strategy="random", seed=seed)) == want


def verify_passes(name: str, strategy: str) -> bool:
    """Whether both checks of `verify` pass on the example `name`, cut as
    it is, with fields by `strategy`."""
    (x, a, b), _ = EXAMPLES[name]()
    xt = build_xtilde(build_decomposition(x, a, b, strategy=strategy, seed=7))
    return check_iso_simplicial(xt).ok and check_main_iso(xt).ok


@pytest.mark.parametrize("strategy", ["lexicographic", "random"])
@pytest.mark.parametrize("name", ["suspension of RP2", "suspension of M(Z/3, 1)"])
def test_verify_passes_on_suspensions(name, strategy):
    assert verify_passes(name, strategy)


@pytest.mark.parametrize("strategy", ["lexicographic", "random"])
@pytest.mark.parametrize("name", ["RP2 x S1", "RP2 * S1"])
def test_verify_passes_on_products_and_joins(name, strategy):
    assert verify_passes(name, strategy)


# factors for the hypothesis products and joins: small corpus complexes and
# M(Z/k, 1) for k = 2..6, each with its groups; the second factor is kept
# to the smallest, so that every example stays small
FACTORS = {
    **{name: lambda name=name: (corpus_complexes()[name], expected_homology(name))
       for name in ("circle", "two_points", "wedge2circles", "sphere2", "rp2", "torus")},
    **{f"M(Z/{k}, 1)": functools.partial(lambda k: (moore(k)[0], moore_space(k)[1]), k)
       for k in range(2, 7)},
}
SMALL_FACTORS = ("circle", "two_points", "wedge2circles")


def tagged(x: SimplicialComplex, tag: str) -> SimplicialComplex:
    """x on its vertex names prefixed by `tag`, so that it joins any
    complex whose names do not start with it."""
    return build_complex([[tag + v for v in s.vertices] for s in x.maximal_simplices])


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(FACTORS)), st.sampled_from(SMALL_FACTORS),
       st.sampled_from(["product", "join"]), st.integers(0, 99), st.data())
def test_products_and_joins_give_the_closed_form(first, second, operation, seed, data):
    """X x Y by Künneth and X * Y by the join formula, cut by the star of a
    vertex that some maximal simplex misses, on the oracle, the one-field
    route and Mayer-Vietoris with greedy and random fields."""
    (x, hx), (y, hy) = FACTORS[first](), FACTORS[second]()
    if operation == "product":
        xy, want = product(x, y), kunneth(hx, hy)
    else:
        xy, want = join(x, tagged(y, "y")), joined(hx, hy)
    cut = [v for v in sorted(xy.vertices)
           if any(v not in s.vertices for s in xy.maximal_simplices)]
    xy, a, b = star_cut(xy, data.draw(st.sampled_from(cut)))
    assert simplicial_homology(xy) == want
    assert homology(thom_smale_complex(greedy_gvf(xy))) == want
    assert mv_homology(build_decomposition(xy, a, b)) == want
    assert mv_homology(build_decomposition(xy, a, b, strategy="random", seed=seed)) == want
