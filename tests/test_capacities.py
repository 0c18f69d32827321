import math
import operator
import random
import time
from fractions import Fraction
from itertools import accumulate

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
    gromov_width,
    obstruct,
    polydisk_capacity,
    product_capacities,
    scale_domain,
    support_value,
)
import toricap.capacities as capacities_module
import toricap.domains as domains_module
from toricap.oracle import compositions
from helpers import (
    grow_concave,
    grow_convex,
    random_axes,
    random_concave,
    random_convex,
    random_point,
    random_positive_fraction,
    reference_max_total,
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ellipsoid_capacity((0, 1), 1), "ellipsoid axes must be positive, got 0"),
        (lambda: ellipsoid_capacity((), 1), "ellipsoid needs at least one axis"),
        (lambda: polydisk_capacity((), 1), "polydisk needs at least one factor"),
        (lambda: polydisk_capacity((1, -1), 1), "polydisk areas must be positive, got -1"),
        (
            lambda: cylinder_union_capacity(0, 1, 1),
            "cylinder-union dimension must be a positive integer, got 0",
        ),
        (lambda: cylinder_union_capacity(2, 0, 1), "cylinder-union size must be positive, got 0"),
    ],
    ids=["zero_axis", "no_axis", "no_factor", "negative_area", "zero_dimension", "zero_size"],
)
def test_closed_forms_raise_what_their_kind_raises(call, message):
    # each closed form checks its data by building its kind
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


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


def test_sequence_witnesses_hold_at_depth():
    """Every record of seeded hulls' and staircases' sequences in n 3-12,
    past the oracle's reach, meets three checks that share no code with the
    search.  Its witness evaluates to its value through ``support_value``
    or ``antinorm_value``; it sums to k (hull) or k + n - 1 (staircase);
    and it is locally lex-first: for i < j with u_i above its floor (0,
    or 1 on a staircase), u - e_i + e_j is lexicographically earlier, so it
    must score strictly worse (higher on a hull, lower on a staircase)."""
    rng = random.Random(2704)
    shapes = (
        (random_convex, support_value, 0, operator.gt),
        (random_concave, antinorm_value, 1, operator.lt),
    )
    checked = 0
    for n, kmax in [(3, 20), (4, 16), (5, 14)] * 10 + [(n, 12) for n in range(6, 13)] * 3:
        for make, evaluate, floor, worse in shapes:
            domain = make(rng, n=n, max_points=5)
            for r in capacity_sequence(domain, kmax).values:
                u = r.witness
                assert sum(u) == r.k + floor * (n - 1) and min(u) >= floor, (domain, r)
                assert evaluate(domain, u) == r.value, (domain, r)
                for i in (i for i in range(n - 1) if u[i] > floor):
                    for j in range(i + 1, n):
                        earlier = (*u[:i], u[i] - 1, *u[i + 1 : j], u[j] + 1, *u[j + 1 :])
                        assert worse(evaluate(domain, earlier), r.value), (domain, r, earlier)
                        checked += 1
    assert checked > 6000


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_permuted_and_scaled_regions_keep_their_sequences_at_depth(n):
    """Two of the paper's properties, checked past the oracle's reach on a
    hull and a staircase of 6 points: permuting the coordinates keeps every
    value, though the search takes another path in another lexicographic
    order; and ``scale_domain`` by lambda multiplies every value by lambda
    and keeps every witness (conformality).  Each hull has a strictly
    positive generator, so its diagonal is positive, and every staircase
    vertex is strictly positive."""
    rng = random.Random(2913 + n)
    kmax = 12
    for kind in (ConvexToricDomain, ConcaveToricDomain) * 3:
        points = [random_point(rng, n, positive=kind is ConcaveToricDomain) for _ in range(5)]
        points.append(random_point(rng, n, positive=True))
        domain = kind(tuple(points))
        records = capacity_sequence(domain, kmax).values
        values = [r.value for r in records]
        order = rng.sample(range(n), n)
        permuted = kind(tuple(tuple(p[i] for i in order) for p in points))
        assert capacity_sequence(permuted, kmax).raw_values() == values, (domain, order)
        factor = F(rng.randint(1, 9), rng.randint(1, 5))
        scaled = capacity_sequence(scale_domain(domain, factor), kmax).values
        assert [r.value for r in scaled] == [factor * v for v in values], (domain, factor)
        assert [r.witness for r in scaled] == [r.witness for r in records], (domain, factor)


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


def test_ellipsoid_closed_form_matches_its_staircase():
    # an ellipsoid is the staircase of its finite axes' vertices, so the
    # concave search and the composition oracle cross-check its closed form
    rng = random.Random(71)
    for axes in _ellipsoid_cases(rng, 6):
        e = Ellipsoid(axes)
        for k in range(1, 9):
            expected = ellipsoid_capacity(e.axes, k)
            assert concave_capacity(e, k).value == expected, (axes, k)
            assert brute_concave_capacity(e, k) == expected, (axes, k)


# Seconds allowed for c_1..c_10 and for c_(10^9) of one 2,000-axis
# ellipsoid, measured at 0.002 s and 0.01 s on a 2-core x86 machine with
# Python 3.11.  Building its 2,000 x 2,000 staircase rows alone takes 1.3 s
# and about 100 MB there.
WIDE_ELLIPSOID_SECONDS = 1.0


def test_ellipsoid_closed_forms_read_only_the_axes():
    rng = random.Random(73)
    axes = (*random_axes(rng, 1999), "inf")
    e = Ellipsoid(axes)
    start = time.perf_counter()
    seq = capacity_sequence(e, 10)
    elapsed = time.perf_counter() - start
    assert elapsed < WIDE_ELLIPSOID_SECONDS, f"{elapsed:.2f} s for c_1..c_10"
    assert seq.raw_values() == [brute_ellipsoid_capacity(axes, k) for k in range(1, 11)]
    start = time.perf_counter()
    c = ellipsoid_capacity(axes, 10**9)
    elapsed = time.perf_counter() - start
    assert elapsed < WIDE_ELLIPSOID_SECONDS, f"{elapsed:.2f} s for c_(10^9)"
    finite = e.finite_axes
    assert sum(math.floor(c / a) for a in finite) >= 10**9
    assert sum(math.ceil(c / a) - 1 for a in finite) < 10**9
    assert "_scaled" not in vars(e)  # no staircase rows were built


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


def test_sequences_keep_the_inequalities_of_their_shape():
    """A hull's c_k is the least norm over sum(v) = k, and a norm is
    subadditive: c_(i+j) <= c_i + c_j.  A staircase's is the greatest
    anti-norm over v >= 1 with sum(v) = k + n - 1, and an anti-norm is
    superadditive: c_(i+j+n-1) >= c_i + c_j.  Checked for every i, j >= 1
    up to K = 24 on seeded domains of all six kinds, n = 1..4."""
    rng, kmax = random.Random(2503), 24

    def ellipsoid(n):
        axes = random_axes(rng, n)
        return Ellipsoid(axes[:-1] + ("inf",) if n > 1 and rng.random() < 0.25 else axes)

    kinds = [
        ellipsoid,
        lambda n: Polydisk(random_axes(rng, n)),
        lambda n: Cube(n, random_axes(rng, 1)[0]),
        lambda n: CylinderUnion(n, random_axes(rng, 1)[0]),
        lambda n: random_convex(rng, n=n, max_points=4),
        lambda n: random_concave(rng, n=n, max_points=4),
    ]
    checked = 0
    for make in kinds:
        for _ in range(50):
            domain = make(rng.randint(1, 4))
            c = [0, *capacity_sequence(domain, kmax).raw_values()]
            if domain.shape == "hull":
                pairs = [(i, j, i + j) for i in range(1, kmax) for j in range(1, kmax - i + 1)]
                assert all(c[k] <= c[i] + c[j] for i, j, k in pairs), domain
            else:
                shift = domain.n - 1
                pairs = [
                    (i, j, i + j + shift)
                    for i in range(1, kmax) for j in range(1, kmax - shift - i + 1)
                ]
                assert all(c[k] >= c[i] + c[j] for i, j, k in pairs), domain
            checked += len(pairs)
    assert checked > 75_000


def _assert_plain_records(seq, values, branch):
    """``seq`` holds exactly the records one constructor call per value gives."""
    expected = [CapacityResult(k, F(v), None, branch) for k, v in enumerate(values, 1)]
    assert list(seq.values) == expected
    for got, want in zip(seq.values, expected):
        assert type(got) is CapacityResult and type(got.value) is Fraction
        assert repr(got) == repr(want)


def test_closed_form_and_product_records_are_plain_results():
    rng = random.Random(61)
    for axes in _ellipsoid_cases(rng, 8):
        kmax = rng.randint(1, 40)
        _assert_plain_records(
            capacity_sequence(Ellipsoid(axes), kmax),
            [brute_ellipsoid_capacity(axes, k) for k in range(1, kmax + 1)],
            Branch.ELLIPSOID_SPECTRUM,
        )
    for domain in _progression_cases(rng, 30):
        kmax = rng.randint(1, 200)
        _assert_plain_records(
            capacity_sequence(domain, kmax),
            [capacity_at(domain, k).value for k in range(1, kmax + 1)],
            capacity_at(domain, 1).branch,
        )
    for _ in range(10):
        kmax = rng.randint(1, 40)
        left = capacity_sequence(Ellipsoid(random_axes(rng, rng.randint(1, 3))), kmax)
        right = capacity_sequence(rng.choice(list(_progression_cases(rng, 3))), kmax)
        _assert_plain_records(
            product_capacities(left, right, kmax),
            _min_plus_reference(left, right, kmax),
            Branch.PRODUCT_COMBINATOR,
        )


def test_integer_monotonicity_check_fires(monkeypatch):
    # every sequence path reads its producer by module-global name: the
    # ellipsoid merge and the progression; both shapes read the domain's
    # search's run, for the cold c_1 and the seeded c_2 .. c_K after it
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

    def falling_run(search, first, last, seed=None):
        # the run answers each c_k * denom in the capacity's own terms
        return [((5, 5, 7, 6, 8)[k - 1], (k,)) for k in range(first, last + 1)]

    monkeypatch.setattr(capacities_module._Search, "run", falling_run)
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


def _many_points_regions():
    """A hull and a staircase of 2,000 points in n = 6."""
    rng = random.Random(2000)
    hull = ConvexToricDomain(tuple(random_point(rng, 6, positive=True) for _ in range(2000)))
    rng = random.Random(6)
    stair = ConcaveToricDomain(tuple(random_point(rng, 6, positive=True) for _ in range(2000)))
    return hull, stair


def test_searches_with_many_points_in_few_coordinates():
    # the values and witnesses are frozen from a search whose games were
    # played on a subsample of the rows
    hull, stair = _many_points_regions()
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


def _recorded_programs(monkeypatch):
    """The list of the matrices that ``_max_total`` is called on from now."""
    programs = []
    solve = domains_module._max_total
    monkeypatch.setattr(
        domains_module, "_max_total", lambda matrix: programs.append(matrix) or solve(matrix)
    )
    return programs


def test_the_searches_play_the_full_tableaus_games(monkeypatch):
    # every program the diagonal and the bounds hand the condensed tableau,
    # over the pruning corpus and the regions of 2,000 points, gets the
    # full tableau's d, primal and dual
    programs = _recorded_programs(monkeypatch)
    regions = [*_pruning_corpus(), *((domain, 6) for domain in _many_points_regions())]
    for domain, kmax in regions:
        diagonal_intersection(domain)
        capacity_sequence(domain, kmax)
    assert len(programs) == sum(domain.n - 1 for domain, _ in regions)
    monkeypatch.undo()  # stop recording
    for matrix in programs:
        assert domains_module._max_total(matrix) == reference_max_total(matrix), matrix


@pytest.mark.parametrize("kind", [ConvexToricDomain, ConcaveToricDomain])
def test_the_diagonal_and_the_search_root_play_one_game(monkeypatch, kind):
    # with n <= 2m the search's root game is the region's game, so the
    # diagonal and a search play it once between them, in either order,
    # and n - 2 level games besides; a wider region's search plays its
    # sampled root apart from the diagonal
    programs = _recorded_programs(monkeypatch)
    rng = random.Random(19)
    for n in range(3, 9):
        for m in sorted({-(-n // 2), n, 7}):
            points = tuple(random_point(rng, n, positive=True) for _ in range(m))
            for first in ("diagonal", "search"):
                domain = kind(points)
                programs.clear()
                if first == "diagonal":
                    diagonal_intersection(domain)
                    assert len(programs) == 1
                capacity_at(domain, 3)
                diagonal_intersection(domain)
                assert len(programs) == n - 1, (n, m, first)
    m = 2  # n = 7 > 2m: the diagonal, the sampled root and 2m - 1 level games
    domain = kind(tuple(random_point(rng, 7, positive=True) for _ in range(m)))
    programs.clear()
    diagonal_intersection(domain)
    capacity_at(domain, 3)
    assert len(programs) == 2 * m + 1


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


# Pair solves over ``_pruning_corpus`` once each last pair is solved only
# inside the window where a split beats the incumbent (1,346 without the
# window).  A pair with an empty window is not solved, so every remaining
# solve improves the incumbent.
PAIR_SOLVES_IN_WINDOWS = 776


def test_every_pair_solve_improves_the_incumbent(monkeypatch):
    values = []  # per search, the value of each pair solve
    solve = capacities_module._lowest_minimizer

    def recorded(*args):
        e, value = solve(*args)
        values[-1].append(value)
        return e, value

    monkeypatch.setattr(capacities_module, "_lowest_minimizer", recorded)
    for domain, kmax in _pruning_corpus():
        for k in range(1, kmax + 1):
            values.append([])
            capacity_at(domain, k)
    for search in values:
        assert all(a > b for a, b in zip(search, search[1:])), search
    solves = sum(map(len, values))
    assert solves <= PAIR_SOLVES_IN_WINDOWS, solves


def _cut_run_regions(rng):
    """Hulls and staircases in n = 3 and 4 of 2 to 5 points, with p/q
    coordinates (p <= 12, q <= 4), about a quarter of the entries zero and
    some points repeated.  Their searches cut long runs of entries, by the
    surrogate row and by the per-row floors, and skip each run at once."""
    for n in (3, 4):
        for kind in (ConvexToricDomain, ConcaveToricDomain):
            for _ in range(12):
                points = []
                for _ in range(rng.randint(2, 5)):
                    point = [
                        F(0) if rng.random() < 0.25 else F(rng.randint(1, 12), rng.randint(1, 4))
                        for _ in range(n)
                    ]
                    if not any(point):  # a staircase vertex at 0 collapses the region
                        point[-1] = F(1)
                    points.append(tuple(point))
                points += points[: rng.randint(0, 2)]
                yield kind(tuple(points))


def test_skipped_runs_keep_values_and_lex_first_witnesses():
    rng = random.Random(41)
    for domain in _cut_run_regions(rng):
        kmax = 40 if domain.n == 3 else 24
        results = capacity_sequence(domain, kmax).values
        for k in sorted({1, 2, rng.randint(3, kmax), rng.randint(3, kmax), kmax}):
            value, witness = results[k - 1].value, results[k - 1].witness
            assert value == brute_capacity(domain, k), (domain.points, k)
            assert (value, witness) == _lex_first_optimum(domain, k), (domain.points, k)


# Seconds allowed for c_1 .. c_32 of the staircase below, measured at about
# 0.4 s (0.6 s before runs of cut entries were skipped) on a 2-core x86
# machine with Python 3.11.
DEEP_STAIRCASE_SECONDS = 5.0


def test_deep_staircase_keeps_its_values_and_witnesses():
    # 12 vertices in n = 8, far past the oracle's reach; the values and
    # witnesses are frozen from a search that stepped through every entry
    rng = random.Random(812)
    vertices = tuple(
        tuple(F(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(8)) for _ in range(12)
    )
    values = [
        "215/12", "257/12", "287/12", "335/12", "123/4", "407/12", "431/12", "157/4",
        "169/4", "539/12", "193/4", "201/4", "643/12", "225/4", "237/4", "749/12", "261/4",
        "815/12", "847/12", "883/12", "923/12", "955/12", "329/4", "341/4", "1055/12",
        "1091/12", "1127/12", "1159/12", "1199/12", "1231/12", "1261/12", "433/4",
    ]
    witnesses = [
        (1, 1, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 2, 1, 1), (1, 1, 1, 2, 1, 2, 1, 1),
        (1, 1, 1, 2, 1, 3, 1, 1), (1, 2, 1, 2, 1, 3, 1, 1), (1, 1, 3, 1, 1, 4, 1, 1),
        (1, 1, 3, 2, 1, 4, 1, 1), (1, 2, 4, 1, 1, 4, 1, 1), (1, 2, 1, 3, 2, 5, 1, 1),
        (1, 1, 1, 4, 2, 6, 1, 1), (1, 2, 2, 3, 2, 6, 1, 1), (1, 2, 3, 3, 2, 6, 1, 1),
        (1, 2, 4, 2, 2, 7, 1, 1), (1, 2, 1, 4, 3, 7, 1, 2), (1, 2, 1, 5, 3, 8, 1, 1),
        (1, 3, 2, 4, 3, 8, 1, 1), (1, 2, 3, 4, 3, 9, 1, 1), (1, 4, 3, 4, 3, 8, 1, 1),
        (1, 3, 4, 4, 3, 9, 1, 1), (1, 3, 1, 6, 4, 10, 1, 1), (1, 4, 1, 6, 4, 10, 1, 1),
        (1, 3, 2, 6, 4, 11, 1, 1), (1, 2, 4, 5, 4, 12, 1, 1), (1, 2, 5, 4, 4, 12, 1, 2),
        (1, 4, 1, 7, 5, 12, 1, 1), (1, 4, 1, 7, 5, 12, 1, 2), (1, 4, 2, 7, 5, 13, 1, 1),
        (1, 3, 3, 7, 5, 14, 1, 1), (1, 4, 4, 6, 5, 14, 1, 1), (1, 3, 5, 6, 5, 15, 1, 1),
        (1, 3, 6, 5, 5, 16, 1, 1), (1, 5, 1, 9, 6, 15, 1, 1),
    ]
    start = time.perf_counter()
    results = capacity_sequence(ConcaveToricDomain(vertices), 32).values
    elapsed = time.perf_counter() - start
    assert elapsed < DEEP_STAIRCASE_SECONDS, f"{elapsed:.2f} s"
    assert [str(r.value) for r in results] == values
    assert [r.witness for r in results] == witnesses


def test_search_stops_at_the_root_bound(monkeypatch):
    # the staircase on the unit vectors (an ellipsoid E(1, ..., 1)): the
    # root game's bound, rounded up, is every c_k, so each cold search ends
    # at its first optimal pair solve; rounded down it would go on.  The
    # searches of a sequence start from the previous witness instead of the
    # rounded incumbent, and a one-unit extension misses some balanced
    # optima, so they make more pair solves: this counts per-k capacity_at
    calls = []
    solve = capacities_module._lowest_minimizer
    monkeypatch.setattr(
        capacities_module, "_lowest_minimizer", lambda *args: calls.append(1) or solve(*args)
    )
    for n in (3, 4):
        calls.clear()
        domain = ConcaveToricDomain(tuple(tuple(int(i == j) for i in range(n)) for j in range(n)))
        values = [capacity_at(domain, k).value for k in range(1, 31)]
        assert values == [ellipsoid_capacity((1,) * n, k) for k in range(1, 31)]
        assert len(calls) <= 30, len(calls)


# Seconds allowed for c_60 of the unit staircase in n = 12, measured at about
# 4 ms on a 2-core x86 machine with Python 3.11.  The root game's bound is
# tight there, so the root stop ends the search.  The surrogate rows end it
# too: the tail games leave out the rows that are zero over their tail, and
# without the root stop it also takes about 4 ms (about 40 s while a tail
# game could weight those rows).
TIED_STAIRCASE_SECONDS = 2.0


def test_root_stop_ends_a_tied_search_in_high_dimension():
    units = tuple(tuple(int(i == j) for i in range(12)) for j in range(12))
    start = time.perf_counter()
    result = capacity_at(ConcaveToricDomain(units), 60)
    elapsed = time.perf_counter() - start
    assert elapsed < TIED_STAIRCASE_SECONDS, f"{elapsed:.2f} s"
    assert (result.value, result.witness) == (5, (5,) * 11 + (16,))


# Seconds allowed for c_60 of each tied staircase of TIED_STAIRCASES, measured
# at 4-10 ms on a 2-core x86 machine with Python 3.11 (about 10 s each while
# a tail game could weight a row constant over its tail).
TIED_CUTS_SECONDS = 1.0

# Staircases with tied axes whose root bound is not tight, so only the
# per-level cuts end their searches: (axes, c_60's witness).
TIED_STAIRCASES = [
    ((2,) * 6 + (3,) * 6, (6, 6, 6, 6, 6, 6, 4, 4, 4, 4, 4, 15)),
    ((1,) * 6 + (F(5, 4),) * 6, (6, 6, 6, 6, 6, 6, 5, 5, 5, 5, 5, 10)),
]


@pytest.mark.parametrize("axes, witness", TIED_STAIRCASES)
def test_tail_cuts_end_a_tied_search_in_high_dimension(axes, witness):
    domain = Ellipsoid(axes).to_concave()
    start = time.perf_counter()
    result = capacity_at(domain, 60)
    elapsed = time.perf_counter() - start
    assert elapsed < TIED_CUTS_SECONDS, f"{elapsed:.2f} s"
    assert (result.value, result.witness) == (capacity_at(Ellipsoid(axes), 60).value, witness)


def test_tail_games_leave_out_rows_constant_over_the_tail():
    for axes, _ in TIED_STAIRCASES + [((1,) * 12, None)]:
        search = capacities_module._Search(Ellipsoid(axes).to_concave())
        rows, n, m = search.rows, search.n, len(search.rows)
        sums = [sum(col) for col in search.cols]
        for start in range(max(1, n - 2 * m), n - 1):
            flat = [len(set(row[start:])) == 1 for row in rows]
            assert any(flat) and not all(flat)
            y, _ = capacities_module._tail_game(rows, sums, start)
            assert all(yw == 0 for yw, f in zip(y, flat) if f), (axes, start, y)
    rows = [(1, 1, 1), (2, 2, 2)]  # every row constant: the game plays as it stands
    y, _ = capacities_module._tail_game(rows, [3, 3, 3], 0)
    assert y == domains_module._game(rows)[1]


def _seed_corpus(rng: random.Random, count: int):
    """Hulls and staircases in n = 1..6 of 1 to 5 points p/q (p <= 8,
    q <= 6), a quarter of the coordinates 0, plus up to two duplicated
    points."""
    for _ in range(count):
        n = rng.randint(1, 6)
        points = [
            tuple(F(0) if rng.random() < 0.25 else F(rng.randint(1, 8), rng.randint(1, 6))
                  for _ in range(n))
            for _ in range(rng.randint(1, 5))
        ]
        points += rng.choices(points, k=rng.randint(0, 2))
        yield rng.choice((ConvexToricDomain, ConcaveToricDomain))(tuple(points))


def _composition(rng: random.Random, n: int, total: int) -> tuple[int, ...]:
    """A random composition of total into n entries >= 0."""
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))


# The totals of the seeded searches: every one up to TOTALS.
TOTALS = 30


def test_a_seed_never_changes_a_search():
    # one run from k to k answers (c_k * denom, witness) in the capacity's own
    # terms, cold or from any seed: c_(k-1)'s witness, or any composition
    # of its sum, k - 1 on a hull and k + n - 2 with every entry >= 1 on a
    # staircase
    rng = random.Random(2417)
    shapes = set()
    for domain in _seed_corpus(rng, 120):
        search, n, denom = domain._search, domain.n, domain._scaled[0]
        lift = int(domain.shape == "staircase")
        shapes.add((domain.shape, n))
        previous = capacity_at(domain, 1)
        assert search.run(1, 1)[0] == (previous.value * denom, previous.witness), domain
        for k in range(2, TOTALS + 1):
            result = capacity_at(domain, k)
            expected = (result.value * denom, result.witness)
            seeds = [previous.witness, (lift,) * (n - 1) + (k - 1,)]
            seeds += [tuple(e + lift for e in _composition(rng, n, k - 1 - lift)) for _ in range(2)]
            for seed in [None, *seeds]:
                assert search.run(k, k, seed)[0] == expected, (domain, k, seed)
            previous = result
    assert {n for _, n in shapes} == set(range(1, 7))
    assert {shape for shape, _ in shapes} == {"hull", "staircase"}


def test_a_searched_sequence_is_the_records_of_each_k():
    rng = random.Random(2418)
    for domain in _seed_corpus(rng, 120):
        expected = tuple(capacity_at(domain, k) for k in range(1, TOTALS + 1))
        assert capacity_sequence(type(domain)(domain.points), TOTALS).values == expected


@pytest.mark.parametrize("shape", ["hull", "staircase"])
def test_a_searched_sequence_makes_one_cold_search(monkeypatch, shape):
    # c_1 is the one cold search, through capacity_at: one call of the
    # shape's search function and its rounded incumbent (none for a
    # staircase, whose c_1 is at total 0); every later c_k is one seeded
    # kernel run of the sequence's run
    calls = dict.fromkeys(("convex_capacity", "concave_capacity", "_rounded", "cold", "seeded"), 0)

    def counting(name, function):
        def counted(*args):
            calls[name] += 1
            return function(*args)

        return counted

    for name in ("convex_capacity", "concave_capacity"):
        original = getattr(capacities_module, name)
        monkeypatch.setattr(capacities_module, name, counting(name, original))
    search = capacities_module._Search
    monkeypatch.setattr(search, "_rounded", counting("_rounded", search._rounded))
    cold, seeded = counting("cold", search._least), counting("seeded", search._least)

    def least(self, total, seed=None):
        return cold(self, total) if seed is None else seeded(self, total, seed)

    monkeypatch.setattr(search, "_least", least)
    kmax = 12
    domain = (random_convex if shape == "hull" else random_concave)(random.Random(2419), n=4)
    capacity_sequence(domain, kmax)
    hull = shape == "hull"
    assert calls == {
        "convex_capacity": int(hull), "concave_capacity": int(not hull), "_rounded": int(hull),
        "cold": 1, "seeded": kmax - 1,
    }


def test_a_run_hands_each_k_the_row_values_of_the_witness_before_it(monkeypatch):
    # each kernel call of a sequence is seeded by the row values
    # dots_w + <u, w> of the witness u before it and returns its own
    # witness's, both recomputed here from the witnesses, on the seed
    # corpus and the n = 8 deep probe of tools/ab.py
    calls = []
    least = capacities_module._Search._least

    def recorded(search, total, seed=None):
        result = least(search, total, seed)
        calls.append((total, seed, *result))
        return result

    monkeypatch.setattr(capacities_module._Search, "_least", recorded)
    probe = random.Random(812)
    points = tuple(
        tuple(F(probe.randint(1, 12), probe.randint(1, 4)) for _ in range(8)) for _ in range(12)
    )
    domains = list(_seed_corpus(random.Random(3201), 120))
    domains += [ConvexToricDomain(points), ConcaveToricDomain(points)]
    for domain in domains:
        calls.clear()
        capacity_sequence(domain, TOTALS)
        search, lift = domain._search, int(domain.shape == "staircase")

        def row_values(u):
            return [d + sum(map(operator.mul, u, w)) for d, w in zip(search.dots, search.rows)]

        assert [total for total, *_ in calls] == list(range(1 - lift, TOTALS + 1 - lift))
        assert calls[0][1] is None
        for (_, _, _, witness, _), (_, seed, *_) in zip(calls, calls[1:]):
            assert seed == row_values(witness), (domain, witness)
        for total, _, value, witness, vals in calls:
            assert sum(witness) == total and vals == row_values(witness), (domain, witness)
            assert value == max(vals), (domain, witness)
    assert {(d.shape, d.n) for d in domains} >= {
        (shape, n) for shape in ("hull", "staircase") for n in range(1, 7)
    }


def test_non_domains_are_rejected():
    for call in (
        lambda: capacity_at("E(1, 2)", 1),
        lambda: capacity_sequence((1, 2), 3),
        lambda: diagonal_intersection(None),
        lambda: brute_capacity(object(), 2),
        lambda: obstruct("x", Cube(2, 1), 3),
        lambda: obstruct(Cube(2, 1), "x", 3),
        lambda: gromov_width("x"),
        lambda: scale_domain("x", 2),
    ):
        with pytest.raises(TypeError, match="not a toric domain"):
            call()


def test_searches_reject_the_other_shape():
    with pytest.raises(TypeError, match="staircase region, not a hull"):
        convex_capacity(CylinderUnion(2, 1), 2)
    with pytest.raises(TypeError, match="hull region, not a staircase"):
        concave_capacity(Cube(2, 1), 2)


def test_an_ellipsoid_is_a_staircase():
    e = Ellipsoid((1, 2))
    for call in (lambda: convex_capacity(e, 2), lambda: support_value(e, (1, 1))):
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == "E(1, 2) is a staircase region, not a hull"
    everywhere = Ellipsoid(("inf", "inf"))
    for call in (
        lambda: concave_capacity(everywhere, 1),
        lambda: antinorm_value(everywhere, (1, 1)),
        everywhere.to_concave,
    ):
        with pytest.raises(UnboundedDomainError) as info:
            call()
        assert str(info.value) == "every axis is infinite: no staircase bounds the region"
    for call in (
        lambda: capacity_at(everywhere, 1),
        lambda: capacity_sequence(everywhere, 3),
        lambda: brute_capacity(everywhere, 1),
        lambda: diagonal_intersection(everywhere),
        everywhere.to_convex,
    ):
        with pytest.raises(UnboundedDomainError) as info:
            call()
        assert str(info.value) == "every axis is infinite: the spectrum is empty"


# -------------------------------------------------------------------- products


def _sequence(values, domain="X") -> CapacitySequence:
    return CapacitySequence(
        domain,
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


def test_product_records_do_not_depend_on_how_the_factors_were_built():
    """Engine-built factors, factors built by hand from their values and
    every mix give the same records, label included: the product reads
    each factor's integers, which a hand-built one derives from its
    records."""
    rng = random.Random(2701)
    kinds = [
        lambda n: Ellipsoid(random_axes(rng, n)),
        lambda n: Polydisk(random_axes(rng, n)),
        lambda n: Cube(n, random_axes(rng, 1)[0]),
        lambda n: CylinderUnion(n, random_axes(rng, 1)[0]),
        lambda n: random_convex(rng, n=n, max_points=3),
        lambda n: random_concave(rng, n=n, max_points=3),
    ]
    for _ in range(40):
        kmax = rng.randint(1, 25)
        engine = [
            capacity_sequence(rng.choice(kinds)(rng.randint(1, 3)), kmax + rng.choice((0, 4)))
            for _ in range(2)
        ]
        by_hand = [_sequence(seq.raw_values(), seq.domain) for seq in engine]
        expected = product_capacities(*engine, kmax)
        assert expected.raw_values() == _min_plus_reference(*engine, kmax)
        for left, right in ((by_hand[0], engine[1]), (engine[0], by_hand[1]), by_hand):
            combined = product_capacities(left, right, kmax)
            assert combined == expected and repr(combined) == repr(expected)


def test_products_of_hulls_are_the_search_on_their_pair_generators():
    """The product of two hulls is the hull generated by the concatenated
    pairs (p, q), so the min-plus of the factors' sequences is that hull's
    searched sequence.  A single-generator hull is linear, so both
    ``_min_plus`` paths run."""
    rng = random.Random(2912)

    def antichain():  # generators (x_i, y_i), x rising and y falling: seldom linear
        xs, ys = (sorted({random_positive_fraction(rng) for _ in range(3)}) for _ in range(2))
        return ConvexToricDomain(tuple(zip(xs, reversed(ys))))

    kinds = (
        lambda: random_convex(rng, max_n=2, max_points=1),
        lambda: random_convex(rng, max_n=2, max_points=3),
        antichain,
    )
    linear, paths = capacities_module._linear, []
    for i in range(117):  # each of the 9 pairs of kinds 13 times
        left, right = kinds[i % 3](), kinds[i // 3 % 3]()
        kmax = rng.randint(2, 12)
        factors = [capacity_sequence(d, kmax) for d in (left, right)]
        pairs = [p + q for p in left.generators for q in right.generators]
        searched = capacity_sequence(ConvexToricDomain(pairs), kmax).raw_values()
        assert product_capacities(*factors, kmax).raw_values() == searched, (left, right)
        paths.append(any(linear([0, *f._scaled[1]]) for f in factors))
    assert paths.count(True) >= 5 and paths.count(False) >= 5


def _pairwise_min_plus(li, ri, k):
    """c_k of the product from every pair i + j = k: the O(K^2) reference."""
    return min(li[i] + ri[k - i] for i in range(k + 1))


def _min_plus_corpus():
    """(li, ri, kmax): integer factors with c_0 = 0, a convex one (mostly
    not linear) on the left and on the right, both convex, neither, linear
    and constant factors, tied runs of steps, and K = 1."""
    rng = random.Random(2311)

    def steps(kmax, convex):
        drawn = [rng.choice((0, 0, 1, 2, 2, 3, 7, 12)) for _ in range(kmax)]
        return sorted(drawn) if convex else drawn

    def factor(kind, kmax):
        if kind == "linear":
            return [rng.randint(0, 9) * i for i in range(kmax + 1)]
        if kind == "constant":  # steps c, 0, 0, ...: convex only for c = 0
            return [0] + [rng.randint(1, 9)] * kmax
        return [0, *accumulate(steps(kmax, kind == "convex"))]

    kinds = [("convex", "other"), ("other", "convex"), ("convex", "convex"),
             ("other", "other"), ("linear", "other"), ("other", "linear"),
             ("constant", "other"), ("constant", "convex"), ("other", "constant")]
    cases = []
    for i in range(360):
        left_kind, right_kind = kinds[i % len(kinds)]
        kmax = 1 if i < len(kinds) else rng.randint(1, 60)
        li, ri = factor(left_kind, kmax), factor(right_kind, kmax)
        cases.append((li, ri, kmax))
    return cases


def _steps_never_decrease(values):
    steps = [b - a for a, b in zip(values, values[1:])]
    return all(a <= b for a, b in zip(steps, steps[1:]))


def test_min_plus_is_the_pairwise_min_on_both_paths():
    linear = capacities_module._linear
    paths, convex_not_linear = set(), 0
    for li, ri, kmax in _min_plus_corpus():
        expected = [_pairwise_min_plus(li, ri, k) for k in range(1, kmax + 1)]
        assert capacities_module._min_plus(li, ri, kmax) == expected, (li, ri)
        assert capacities_module._min_plus(ri, li, kmax) == expected, (ri, li)
        paths.add((linear(li), linear(ri)))
        convex_not_linear += sum(_steps_never_decrease(f) and not linear(f) for f in (li, ri))
    assert paths == {(True, False), (False, True), (True, True), (False, False)}
    assert convex_not_linear > 100  # these take the pairwise path


def test_linearity_reads_every_value():
    linear = capacities_module._linear
    assert linear([0, 5]) and linear([0, 2, 4, 6]) and linear([0, 0, 0])
    assert linear(range(0, 300, 3))
    assert not linear([0, 1, 2, 4, 6, 6 + 3]) and not linear([0, 0, 0, 1])  # convex
    assert not linear([0, 2, 3]) and not linear([0, 1, 3, 4]) and not linear([0, 4, 4])
    assert not linear([0, 2, 4, 6, 9])  # only the last step differs
    assert not linear([1, 2, 3])  # steps all 1, but not from 0


def test_a_deep_product_with_a_convex_factor_takes_seconds_at_most():
    kmax = 20_000
    start = time.perf_counter()
    left = capacity_sequence(Ellipsoid((1, F(3, 2))), kmax)
    right = capacity_sequence(Polydisk((F(4, 3), 2)), kmax)
    combined = product_capacities(left, right, kmax)
    assert time.perf_counter() - start < 2
    li, ri = [F(0), *left.raw_values()], [F(0), *right.raw_values()]
    for k in (1, 2, 3, 4, 5, 977, 12_345, kmax - 1, kmax):
        assert combined.value(k) == _pairwise_min_plus(li, ri, k)


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
