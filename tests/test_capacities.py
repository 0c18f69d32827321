import math
import random
import time
from fractions import Fraction

import pytest

from toricap import (
    Branch,
    CapacityResult,
    CapacitySequence,
    ConcaveToricDomain,
    ConvexToricDomain,
    Cube,
    CylinderUnion,
    Ellipsoid,
    Polydisk,
    ToricapError,
    UnboundedDomainError,
    antinorm_value,
    asymptotic_slope,
    brute_concave_capacity,
    brute_convex_capacity,
    brute_capacity,
    brute_ellipsoid_capacity,
    capacity_at,
    capacity_sequence,
    concave_capacity,
    convex_capacity,
    cylinder_union_capacity,
    diagonal_intersection,
    ellipsoid_capacity,
    polydisk_capacity,
    product_capacities,
    scale_domain,
    support_value,
)
import toricap.capacities as capacities_module
from toricap.oracle import compositions
from helpers import (
    grow_concave,
    grow_convex,
    random_axes,
    random_concave,
    random_convex,
    random_point,
)

F = Fraction


# ------------------------------------------------------------- closed forms


def test_ellipsoid_spectrum_merges_progressions():
    assert [ellipsoid_capacity((1, 2), k) for k in range(1, 6)] == [1, 2, 2, 3, 4]


def test_ellipsoid_infinite_axis_is_a_cylinder():
    for k in (1, 5, 23):
        assert ellipsoid_capacity((1, "inf"), k) == k


def test_ellipsoid_equal_axes_tie():
    assert ellipsoid_capacity((1, 1), 4) == 2


def test_ellipsoid_errors():
    with pytest.raises(UnboundedDomainError):
        ellipsoid_capacity(("inf", "inf"), 1)
    with pytest.raises(UnboundedDomainError):
        capacity_sequence(Ellipsoid(("inf", "inf")), 3)
    with pytest.raises(ValueError):
        ellipsoid_capacity((1, 2), 0)


def test_polydisk_capacity():
    assert polydisk_capacity((2, 3), 7) == 14
    assert polydisk_capacity((1,), 5) == 5
    assert polydisk_capacity((1, 1, 1), 1) == 1
    with pytest.raises(ValueError):
        polydisk_capacity((2, 3), -1)


def test_cylinder_union_capacity():
    assert cylinder_union_capacity(2, 1, 1) == 2
    assert all(cylinder_union_capacity(1, 1, k) == k for k in range(1, 8))
    assert cylinder_union_capacity(3, F(1, 2), 4) == 3
    with pytest.raises(ValueError):
        cylinder_union_capacity(2, 1, 0)


# ------------------------------------------------------------------ searches


def test_convex_search_examples():
    rect = ConvexToricDomain(((1, 1),))  # P(1,1); every composition ties
    r = convex_capacity(rect, 3)
    assert (r.value, r.witness, r.branch) == (3, (0, 3), Branch.CONVEX_SEARCH)

    simplex = ConvexToricDomain(((1, 0), (0, 2)))  # E(1,2)
    assert convex_capacity(simplex, 3).value == 2

    ball = ConvexToricDomain(((1, 0), (0, 1)))
    b = convex_capacity(ball, 2)
    assert (b.value, b.witness) == (1, (1, 1))


def test_concave_search_examples():
    simplex = ConcaveToricDomain(((1, 0), (0, 2)))
    r = concave_capacity(simplex, 2)
    assert (r.value, r.witness, r.branch) == (2, (2, 1), Branch.CONCAVE_SEARCH)

    ball = ConcaveToricDomain(((1, 0), (0, 1)))
    b = concave_capacity(ball, 1)
    assert (b.value, b.witness) == (1, (1, 1))

    stair = ConcaveToricDomain(((1, 10), (1, 1), (10, 1)))  # truncated staircase
    assert concave_capacity(stair, 3).value == 4


def test_search_rejects_bad_k():
    d = ConvexToricDomain(((1, 1),))
    with pytest.raises(ValueError):
        convex_capacity(d, 0)
    with pytest.raises(ValueError):
        concave_capacity(ConcaveToricDomain(((1, 1),)), 0)


def test_booleans_are_not_integers():
    # bool is an int subclass; no dimension, index or kmax may be one
    convex, concave = ConvexToricDomain(((1, 1),)), ConcaveToricDomain(((1, 1),))
    seq = capacity_sequence(Cube(2, 1), 3)
    calls = [
        lambda: Cube(True, 1),
        lambda: CylinderUnion(True, 1),
        lambda: convex_capacity(convex, True),
        lambda: concave_capacity(concave, True),
        lambda: ellipsoid_capacity((1, 2), True),
        lambda: polydisk_capacity((1, 2), True),
        lambda: cylinder_union_capacity(True, 1, 1),
        lambda: cylinder_union_capacity(2, 1, True),
        lambda: capacity_at(Polydisk((1, 2)), True),
        lambda: capacity_sequence(Ellipsoid((1, 2)), True),
        lambda: capacity_sequence(convex, True),
        lambda: product_capacities(seq, seq, True),
        lambda: asymptotic_slope(convex, True),
        lambda: brute_convex_capacity(convex, True),
        lambda: brute_concave_capacity(concave, True),
        lambda: brute_ellipsoid_capacity((1, 2), True),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="positive integer"):
            call()


def test_sequence_value_takes_only_an_integer_index():
    seq = capacity_sequence(Ellipsoid((1, 2)), 3)
    assert [seq.value(k) for k in (1, 2, 3)] == [1, 2, 2]
    for k in (True, 1.0, F(1), 0, 4):
        with pytest.raises(ValueError, match=r"outside computed range 1\.\.3"):
            seq.value(k)


def test_witness_invariants_random():
    rng = random.Random(23)
    for _ in range(40):
        d = random_convex(rng, max_n=3, max_points=4)
        k = rng.randint(1, 8)
        r = convex_capacity(d, k)
        assert sum(r.witness) == k and all(e >= 0 for e in r.witness)
        assert support_value(d, r.witness) == r.value

        c = random_concave(rng, max_n=3, max_points=4)
        k = rng.randint(1, 8)
        s = concave_capacity(c, k)
        assert sum(s.witness) == k + c.n - 1 and all(e >= 1 for e in s.witness)
        assert antinorm_value(c, s.witness) == s.value


def _lex_first_optimum(domain, k):
    """(c_k, its lexicographically first optimizer) by enumeration: the
    least support value over compositions of k for a hull, the greatest
    anti-norm over positive compositions of k + n - 1 for a staircase."""
    if domain.shape == "hull":
        vectors, value_of, pick = compositions(k, domain.n), support_value, min
    else:
        vectors = (tuple(e + 1 for e in u) for u in compositions(k - 1, domain.n))
        value_of, pick = antinorm_value, max
    values = {v: value_of(domain, v) for v in vectors}
    optimum = pick(values.values())
    return optimum, next(v for v, x in values.items() if x == optimum)


def _search_result(domain, k):
    search = convex_capacity if domain.shape == "hull" else concave_capacity
    r = search(domain, k)
    return r.value, r.witness


def _degenerate_searches(rng, n):
    """Hulls and staircases in dimension n that defeat a careless bound or
    incumbent: a coordinate zero at every point, duplicated points, one
    point, and staircase vertices with zero entries."""
    flat = random_convex(rng, n=n, max_points=4)
    gone = rng.randrange(n)
    flat = ConvexToricDomain(
        tuple(tuple(0 if i == gone else c for i, c in enumerate(p)) for p in flat.generators)
    )
    hull = random_convex(rng, n=n, max_points=3)
    stair = random_concave(rng, n=n, max_points=3)
    zeros = [tuple(F(0) if rng.random() < 0.5 else c for c in p) for p in stair.vertices]
    zeros = [p if any(p) else stair.vertices[0] for p in zeros]
    return [
        flat,
        ConvexToricDomain(hull.generators * 2),
        ConcaveToricDomain(stair.vertices + stair.vertices[:1]),
        ConvexToricDomain(hull.generators[:1]),
        ConcaveToricDomain(stair.vertices[:1]),
        ConcaveToricDomain(tuple(zeros)),
    ]


def test_searches_match_brute_force():
    rng = random.Random(29)
    # (dimension, largest k, instances, most points): a random n <= 3
    # descends at most one coordinate before the last pair, n = 4 and n = 5
    # descend two and three; in n = 8 a tail wider than twice the points
    # takes the root game's weights
    for n, kmax, count, most in ((None, 9, 50, 4), (4, 8, 25, 4), (5, 6, 25, 4), (8, 5, 25, 3)):
        for _ in range(count):
            d = random_convex(rng, n=n, max_n=3, max_points=most)
            k = rng.randint(1, kmax)
            assert _search_result(d, k) == _lex_first_optimum(d, k)
            c = random_concave(rng, n=n, max_n=3, max_points=most)
            assert _search_result(c, k) == _lex_first_optimum(c, k)
    for n, kmax in ((3, 9), (4, 7), (5, 5)):
        for _ in range(4):
            flat, *others = _degenerate_searches(rng, n)
            for k in range(1, kmax + 1):
                assert _search_result(flat, k) == _lex_first_optimum(flat, k)
                assert convex_capacity(flat, k).value == 0
                for d in others:
                    assert _search_result(d, k) == _lex_first_optimum(d, k), (d.points, k)


def test_degenerate_regions():
    # a flat segment on the axis: no interior, every capacity vanishes
    flat = ConvexToricDomain(((2, 0), (3, 0)))
    assert convex_capacity(flat, 5).value == 0
    # one staircase vertex on the axis describes the unbounded strip x1 <= 2,
    # i.e. the cylinder Z(2); its capacities must match the infinite-axis form
    strip = ConcaveToricDomain(((2, 0),))
    for k in (1, 2, 7):
        assert concave_capacity(strip, k).value == ellipsoid_capacity((2, "inf"), k)


def test_ellipsoid_triple_agreement():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 3)
        axes = random_axes(rng, n)
        e = Ellipsoid(axes)
        for k in range(1, 12):
            spectrum = ellipsoid_capacity(axes, k)
            assert convex_capacity(e.to_convex(), k).value == spectrum
            assert concave_capacity(e.to_concave(), k).value == spectrum


# regions whose optimum is attained on long runs of vectors: a generator
# (1, ..., 1), duplicate rows, a zero column and staircase vertices on an
# axis.  In each table the last entry of n = 3 and of n = 4 rounds the
# root game's strategy to an optimum that is not the lexicographically
# first: for the hull on (3, 2, 3) and (0, 3, 0) at k = 2, (1, 1, 0) and
# not (0, 1, 1)
PLATEAU_CONVEX = {
    2: [((1, 1),), ((1, 1), (1, 1), (2, 0)), ((0, 1), (0, 3)), ((2, 1), (1, 2)),
        ((1, 0), (0, 1), (1, 1))],
    3: [((1, 1, 1),), ((1, 1, 0), (0, 1, 1), (1, 1, 0)), ((0, 1, 2), (0, 2, 1)),
        ((2, 1, 1), (1, 2, 1), (1, 1, 2)), ((3, 2, 3), (0, 3, 0))],
    4: [((1, 1, 1, 1),), ((1, 1, 0, 1), (0, 1, 1, 1), (1, 1, 0, 1)),
        ((0, 1, 2, 1), (0, 2, 1, 1)), ((2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2)),
        ((3, 0, 1, 2), (0, 2, 3, 1))],
    5: [((1, 1, 1, 1, 1),), ((1, 0, 1, 1, 0), (0, 1, 1, 0, 1)),
        ((0, 1, 2, 1, 1), (0, 2, 1, 1, 1)), ((2, 1, 1, 1, 1), (1, 1, 1, 1, 2))],
}
PLATEAU_CONCAVE = {
    2: [((1, 1),), ((2, 0),), ((2, 0), (1, 1)), ((1, 2), (1, 2), (3, 1)), ((0, 2), (0, 1))],
    3: [((1, 1, 1),), ((3, 0, 0), (1, 1, 1)), ((0, 1, 2), (0, 2, 1), (0, 2, 1)),
        ((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((2, 0, 1), (1, 2, 1), (2, 2, 3))],
    4: [((1, 1, 1, 1),), ((3, 0, 0, 0), (1, 1, 1, 1)), ((0, 1, 2, 1), (0, 2, 1, 1), (0, 2, 1, 1)),
        ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)), ((1, 3, 3, 1), (2, 1, 1, 3))],
    5: [((1, 1, 1, 1, 1),), ((0, 1, 2, 1, 1), (0, 2, 1, 1, 1)),
        ((2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 2, 0), (0, 0, 0, 0, 2))],
}
PLATEAU_KMAX = {2: 40, 3: 20, 4: 10, 5: 7}


def test_witnesses_are_lex_first_on_long_plateaus():
    for n, kmax in PLATEAU_KMAX.items():
        regions = [ConvexToricDomain(p) for p in PLATEAU_CONVEX[n]]
        regions += [ConcaveToricDomain(p) for p in PLATEAU_CONCAVE[n]]
        for d in regions:
            for k in range(1, kmax + 1):
                assert _search_result(d, k) == _lex_first_optimum(d, k), (d.points, k)


# ------------------------------------------------------------------ sequences


def test_capacity_sequence_dispatch():
    assert capacity_sequence(Ellipsoid((1, 2)), 5).raw_values() == [1, 2, 2, 3, 4]
    assert capacity_sequence(Cube(2, 1), 3).raw_values() == [1, 2, 3]
    assert capacity_sequence(CylinderUnion(2, 1), 3).raw_values() == [2, 3, 4]
    seq = capacity_sequence(Polydisk((2, 3)), 4)
    assert seq.raw_values() == [2, 4, 6, 8]
    assert all(r.branch is Branch.POLYDISK_CLOSED_FORM for r in seq.values)


def test_capacity_sequence_nondecreasing_random():
    rng = random.Random(37)
    for _ in range(20):
        d = random_convex(rng, max_n=3, max_points=4)
        values = capacity_sequence(d, 10).raw_values()
        assert all(a <= b for a, b in zip(values, values[1:]))
        c = random_concave(rng, max_n=3, max_points=4)
        values = capacity_sequence(c, 10).raw_values()
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_scaling_homogeneity_of_sequences():
    rng = random.Random(43)
    for _ in range(15):
        d = random_concave(rng, max_n=3, max_points=4)
        s = F(rng.randint(1, 8), rng.randint(1, 5))
        scaled = capacity_sequence(scale_domain(d, s), 8).raw_values()
        base = capacity_sequence(d, 8).raw_values()
        assert scaled == [s * v for v in base]


def test_monotonicity_under_containment():
    rng = random.Random(47)
    for _ in range(15):
        d = random_convex(rng, max_n=3, max_points=4)
        bigger = grow_convex(rng, d)
        small = capacity_sequence(d, 8).raw_values()
        large = capacity_sequence(bigger, 8).raw_values()
        assert all(a <= b for a, b in zip(small, large))

        c = random_concave(rng, max_n=3, max_points=4)
        wider = grow_concave(rng, c)
        small = capacity_sequence(c, 8).raw_values()
        large = capacity_sequence(wider, 8).raw_values()
        assert all(a <= b for a, b in zip(small, large))


def _ellipsoid_cases(rng: random.Random, count: int):
    """Random axes, then the shapes whose ties the merge must count twice."""
    for _ in range(count):
        yield random_axes(rng, rng.randint(1, 4))
        a, b = random_axes(rng, 2)
        yield (a,)
        yield (a, a)
        yield (a, 3 * a, 2 * a, b)
        yield (a, "inf")
        yield ("inf", a, b, "inf")


def test_ellipsoid_sequence_matches_brute_merge():
    rng = random.Random(53)
    for axes in _ellipsoid_cases(rng, 50):
        kmax = rng.randint(1, 24)
        seq = capacity_sequence(Ellipsoid(axes), kmax)
        assert [r.k for r in seq.values] == list(range(1, kmax + 1))
        assert all(
            r.witness is None and r.branch is Branch.ELLIPSOID_SPECTRUM
            for r in seq.values
        )
        per_k = [ellipsoid_capacity(axes, k) for k in range(1, kmax + 1)]
        assert seq.raw_values() == per_k
        assert per_k == [brute_ellipsoid_capacity(axes, k) for k in range(1, kmax + 1)]


def _progression_cases(rng: random.Random, count: int):
    """Seeded polydisks, cubes and cylinder unions with n from 1 to 5 and
    coordinates over mixed denominators."""
    def size() -> Fraction:
        return F(rng.randint(1, 40), rng.choice((1, 2, 3, 7, 12, 30, 97)))

    for i in range(count):
        n = rng.randint(1, 5)
        yield [
            Polydisk(tuple(size() for _ in range(n))),
            Cube(n, size()),
            CylinderUnion(n, size()),
        ][i % 3]


def test_progression_sequences_match_per_k_closed_forms():
    rng = random.Random(59)
    for i, domain in enumerate(_progression_cases(rng, 90)):
        kmax = (1, 2, rng.randint(3, 60), rng.randint(61, 1500))[i % 4]
        seq = capacity_sequence(domain, kmax)
        # value, witness (None) and branch, at every k
        assert seq.values == tuple(capacity_at(domain, k) for k in range(1, kmax + 1))


def test_integer_monotonicity_check_fires(monkeypatch):
    # every sequence path reads its producer by module-global name: the
    # ellipsoid merge, the progression, and the search of each shape
    message = "internal error: capacity sequence decreased at k="
    monkeypatch.setattr(
        capacities_module, "_ellipsoid_sequence", lambda axes, kmax: (3, [1, 4, 2])
    )
    with pytest.raises(ToricapError, match=message + "3$"):
        capacity_sequence(Ellipsoid((1, 2)), 3)
    monkeypatch.setattr(
        capacities_module, "_progression", lambda first, second, kmax: (2, [5, 5, 7, 6, 8])
    )
    for domain in (Polydisk((1, 2)), Cube(2, 1), CylinderUnion(2, 1)):
        with pytest.raises(ToricapError, match=message + "4$"):
            capacity_sequence(domain, 5)

    def falling_search(domain, k):
        return CapacityResult(k, F((5, 5, 7, 6, 8)[k - 1], 2), (k,), Branch.CONVEX_SEARCH)

    monkeypatch.setattr(capacities_module, "convex_capacity", falling_search)
    monkeypatch.setattr(capacities_module, "concave_capacity", falling_search)
    for domain in (ConvexToricDomain(((1,),)), ConcaveToricDomain(((1,),))):
        with pytest.raises(ToricapError, match=message + "4$"):
            capacity_sequence(domain, 5)


HUGE_K_SECONDS = 0.5  # measured at about 0.1 ms per axis set


def test_ellipsoid_capacity_at_huge_k():
    k = 10**12
    for axes in ((1, 2), (F(3, 7), F(5, 2), "inf"), (F(2, 3), F(2, 3), F(7, 5), 11)):
        start = time.perf_counter()
        c = ellipsoid_capacity(axes, k)
        elapsed = time.perf_counter() - start
        assert elapsed < HUGE_K_SECONDS
        finite = [F(a) for a in axes if a != "inf"]
        # at least k multiples m * a are <= c_k, and fewer than k are < c_k
        assert sum(math.floor(c / a) for a in finite) >= k
        assert sum(math.ceil(c / a) - 1 for a in finite) < k


HUGE_K_SEARCH_SECONDS = 0.5  # measured at well under a millisecond per search


def test_searches_at_huge_k_match_the_ellipsoid():
    # E(a, b) as the hull of (a, 0), (0, b) and as the staircase on the same
    # vertices: the last-pair solve makes k = 10^6 cost O(log k)
    k = 10**6
    for a, b in ((1, 2), (F(3, 7), F(5, 2)), (F(2, 3), F(2, 3)), (1, 1000)):
        expected = ellipsoid_capacity((a, b), k)
        for search, domain in (
            (convex_capacity, ConvexToricDomain(((a, 0), (0, b)))),
            (concave_capacity, ConcaveToricDomain(((a, 0), (0, b)))),
        ):
            start = time.perf_counter()
            result = search(domain, k)
            assert time.perf_counter() - start < HUGE_K_SEARCH_SECONDS
            assert result.value == expected


# Seconds allowed for c_1 and c_2 of each region in n = 3000.  Each search
# descends up to n - 2 coordinates; the slowest region, the hull of 12
# scattered points, takes about 0.7 s with its bounds prepared.  n is set
# past Python's default recursion limit of 1000, which a recursive descent
# would reach.
HIGH_DIMENSION_SECONDS = 5.0


def _high_dimension_points(kind, n):
    """One point, 3 and 12 points of distinct scattered coordinates, and 12
    points whose coordinates rise along every tail, so that each level's
    cheapest column is a new one."""
    rng = random.Random(n)
    one = (F(1),) * (n - 1) + (F(5) if kind is ConvexToricDomain else F(1, 5),)
    scattered = tuple(tuple(map(F, rng.sample(range(1, 20 * n), n))) for _ in range(12))
    rising = tuple(
        tuple(F(7 * i + 1 + i * (w + 1) % 7) for i in range(n)) for w in range(12)
    )
    return [(one,), scattered[:3], scattered, rising]


@pytest.mark.parametrize("kind", [ConvexToricDomain, ConcaveToricDomain])
def test_searches_in_high_dimension(kind):
    n = 3000
    for points in _high_dimension_points(kind, n):
        start = time.perf_counter()
        first, second = capacity_sequence(kind(points), 2).values
        elapsed = time.perf_counter() - start
        assert elapsed < HIGH_DIMENSION_SECONDS, f"{elapsed:.2f} s at n = {n}"
        if kind is ConvexToricDomain:  # the best single coordinate
            assert first.value == min(map(max, zip(*points)))
            assert support_value(kind(points), second.witness) == second.value
            assert first.value <= second.value <= 2 * first.value
        else:  # u = 0, then one unit on the best coordinate
            sums = [sum(p) for p in points]
            assert first.value == min(sums)
            assert second.value == max(
                min(s + c for s, c in zip(sums, column)) for column in zip(*points)
            )
        if len(points) == 1:  # k * min(w) for a hull, sum(w) + (k - 1) * max(w)
            total = sum(points[0])  # for a staircase
            expected = [1, 2] if kind is ConvexToricDomain else [total, total + 1]
            assert [first.value, second.value] == expected


# Seconds allowed for the bounds and c_1 .. c_6 of each region below,
# measured at about 0.15 s each on a 2-core x86 machine with Python 3.11,
# where every game is played with all 2,000 rows.
MANY_POINTS_SECONDS = 2.0


def test_searches_with_many_points_in_few_coordinates():
    # the values and witnesses are frozen from a search whose games were
    # played on a subsample of the rows
    rng = random.Random(2000)
    hull = ConvexToricDomain(tuple(random_point(rng, 6, positive=True) for _ in range(2000)))
    rng = random.Random(6)
    stair = ConcaveToricDomain(tuple(random_point(rng, 6, positive=True) for _ in range(2000)))
    cases = [
        (hull, ["8", "15", "18", "22", "151/6", "92/3"], [
            (0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 1), (0, 0, 1, 1, 1, 0),
            (1, 1, 1, 1, 0, 0), (1, 1, 1, 1, 1, 0), (1, 1, 2, 0, 1, 1),
        ]),
        (stair, ["157/60", "101/30", "58/15", "67/15", "149/30", "111/20"], [
            (1, 1, 1, 1, 1, 1), (1, 2, 1, 1, 1, 1), (2, 2, 1, 1, 1, 1),
            (2, 2, 1, 2, 1, 1), (3, 2, 1, 2, 1, 1), (3, 2, 1, 3, 1, 1),
        ]),
    ]
    for domain, values, witnesses in cases:
        start = time.perf_counter()
        seq = capacity_sequence(domain, 6)
        elapsed = time.perf_counter() - start
        assert elapsed < MANY_POINTS_SECONDS, f"{elapsed:.2f} s on {domain.shape}"
        assert [str(r.value) for r in seq.values] == values
        assert [r.witness for r in seq.values] == witnesses


def _pruning_corpus():
    """40 seeded hulls and staircases, n 3-5 and 4-8 points, with their K."""
    rng = random.Random(40)
    for i in range(40):
        n = 3 + i % 3
        points = [random_point(rng, n, positive=True)]
        while len(points) < rng.randint(4, 8):
            point = random_point(rng, n)
            if any(point):
                points.append(point)
        kind = ConvexToricDomain if i % 2 else ConcaveToricDomain
        yield kind(tuple(points)), (20, 16, 12)[i % 3]


# Pair solves (``_lowest_minimizer`` calls) over ``_pruning_corpus`` with
# the per-row bounds alone, before the surrogate rows, the root stop and
# the rounded incumbent.
PAIR_SOLVES_WITH_ROW_BOUNDS = 6304


def test_bounds_halve_the_pair_solves(monkeypatch):
    calls = []
    solve = capacities_module._lowest_minimizer
    monkeypatch.setattr(
        capacities_module, "_lowest_minimizer", lambda *args: calls.append(1) or solve(*args)
    )
    for domain, kmax in _pruning_corpus():
        capacity_sequence(domain, kmax)
    assert len(calls) <= PAIR_SOLVES_WITH_ROW_BOUNDS // 2, len(calls)


def test_search_stops_at_the_root_bound(monkeypatch):
    # the staircase on the unit vectors (an ellipsoid E(1, ..., 1)): the
    # root game's bound, rounded up, is every c_k, so each search ends at
    # its first optimal pair solve; rounded down it would go on
    calls = []
    solve = capacities_module._lowest_minimizer
    monkeypatch.setattr(
        capacities_module, "_lowest_minimizer", lambda *args: calls.append(1) or solve(*args)
    )
    for n in (3, 4):
        calls.clear()
        units = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
        values = capacity_sequence(ConcaveToricDomain(units), 30).raw_values()
        assert values == [ellipsoid_capacity((1,) * n, k) for k in range(1, 31)]
        assert len(calls) <= 30, len(calls)


def test_non_domains_are_rejected():
    for call in (
        lambda: capacity_at("E(1, 2)", 1),
        lambda: capacity_sequence((1, 2), 3),
        lambda: diagonal_intersection(None),
        lambda: brute_capacity(object(), 2),
    ):
        with pytest.raises(TypeError, match="not a toric domain"):
            call()


def test_searches_reject_the_other_shape():
    with pytest.raises(TypeError, match="staircase region, not a hull"):
        convex_capacity(CylinderUnion(2, 1), 2)
    with pytest.raises(TypeError, match="hull region, not a staircase"):
        concave_capacity(Cube(2, 1), 2)


# -------------------------------------------------------------------- products


def _sequence(values) -> CapacitySequence:
    return CapacitySequence(
        "X",
        tuple(
            CapacityResult(k, v, None, Branch.CONVEX_SEARCH)
            for k, v in enumerate(values, 1)
        ),
    )


def _min_plus_reference(left, right, kmax):
    lv = [F(0)] + left.raw_values()
    rv = [F(0)] + right.raw_values()
    return [min(lv[i] + rv[k - i] for i in range(k + 1)) for k in range(1, kmax + 1)]


def test_product_matches_fraction_min_plus():
    rng = random.Random(59)

    def nondecreasing(length):
        values, total = [], F(0)
        for _ in range(length):
            total += F(rng.randint(0, 9), rng.choice((1, 2, 3, 5, 7, 12)))
            values.append(total)
        return values

    pairs = []
    for _ in range(30):
        kmax = rng.randint(1, 30)
        left = _sequence(nondecreasing(kmax + rng.choice((0, 0, 5))))
        right = _sequence(nondecreasing(kmax + rng.choice((0, 3))))
        pairs.append((left, right, kmax))
    for _ in range(10):
        kmax = rng.randint(1, 30)
        left = capacity_sequence(Ellipsoid(random_axes(rng, rng.randint(1, 3))), kmax + 4)
        right = capacity_sequence(Ellipsoid(random_axes(rng, rng.randint(1, 3))), kmax)
        pairs.append((left, right, kmax))
    for left, right, kmax in pairs:
        combined = product_capacities(left, right, kmax)
        assert combined.raw_values() == _min_plus_reference(left, right, kmax)
        assert [r.k for r in combined.values] == list(range(1, kmax + 1))
        assert all(
            r.witness is None and r.branch is Branch.PRODUCT_COMBINATOR
            for r in combined.values
        )


def test_product_of_decreasing_factors_fails_the_check():
    # c_2 = min(0 + 5, 5 + 5, 1 + 0) = 1 < c_1 = 5
    left, right = _sequence([F(5), F(1)]), _sequence([F(5), F(5)])
    with pytest.raises(ToricapError, match="decreased at k=2$"):
        product_capacities(left, right, 2)


def test_product_of_unit_disks_is_a_cube():
    disk = capacity_sequence(Ellipsoid((1,)), 10)
    combined = product_capacities(disk, disk, 10)
    assert combined.raw_values() == [polydisk_capacity((1, 1), k) for k in range(1, 11)]
    assert all(r.branch is Branch.PRODUCT_COMBINATOR for r in combined.values)


def test_product_disks_of_areas_one_and_two():
    d1 = capacity_sequence(Ellipsoid((1,)), 6)
    d2 = capacity_sequence(Ellipsoid((2,)), 6)
    combined = product_capacities(d1, d2, 6)
    assert combined.value(3) == 3
    # P(1,2) and E(1,2) genuinely differ at k=3
    assert ellipsoid_capacity((1, 2), 3) == 2


def test_product_bounded_by_each_factor():
    a = capacity_sequence(Ellipsoid((1, 3)), 8)
    b = capacity_sequence(Polydisk((2, 2)), 8)
    combined = product_capacities(a, b, 8)
    for k in range(1, 9):
        assert combined.value(k) <= min(a.value(k), b.value(k))


def test_product_requires_long_enough_inputs():
    a = capacity_sequence(Ellipsoid((1,)), 4)
    with pytest.raises(ValueError):
        product_capacities(a, a, 5)
