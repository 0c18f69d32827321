import random
import time
from fractions import Fraction

import pytest

from toricap import (
    ConcaveToricDomain,
    ConvexToricDomain,
    Cube,
    CylinderUnion,
    DimensionMismatch,
    Ellipsoid,
    Polydisk,
    antinorm_value,
    asymptotic_slope,
    capacity_at,
    capacity_sequence,
    cube_capacity,
    gromov_width,
    lagrangian_lower_bound,
    obstruct,
    render_domain,
    scale_domain,
)
from toricap.cli import run
from helpers import grow_concave, grow_convex, random_concave, random_convex, random_point

F = Fraction


def test_cube_capacity_examples():
    assert cube_capacity(Ellipsoid((1, 2))) == F(2, 3)
    assert cube_capacity(CylinderUnion(3, 1)) == 1
    assert cube_capacity(Cube(4, F(5, 7))) == F(5, 7)
    assert cube_capacity(Polydisk((3, 2, 5))) == 2


# Seconds allowed for one cube capacity at n = 8 with 16 points.  The
# simplex takes a few milliseconds there; enumerating the basic solutions
# instead would solve C(24, 8) = 735,471 square systems.
HOSTILE_CUBE_SECONDS = 2.0


@pytest.mark.parametrize("kind", [ConvexToricDomain, ConcaveToricDomain])
def test_cube_capacity_hostile_size(kind):
    rng = random.Random(8)
    points = tuple(random_point(rng, 8, positive=(j == 0)) for j in range(16))
    start = time.perf_counter()
    value = cube_capacity(kind(points))
    elapsed = time.perf_counter() - start
    assert value > 0
    assert elapsed < HOSTILE_CUBE_SECONDS, f"{elapsed:.2f} s at n = 8 with 16 points"


def test_gromov_width_examples():
    assert gromov_width(ConcaveToricDomain(((1, 0), (0, 2)))) == 1
    assert gromov_width(ConcaveToricDomain(((2, 2, 2),))) == 6
    assert gromov_width(ConcaveToricDomain(((1, 0), (F(1, 2), F(1, 2)), (0, 1)))) == 1
    assert gromov_width(CylinderUnion(2, 1)) == 2


def test_gromov_width_rejects_a_hull():
    # P(1, 1) has Gromov width 1; the anti-norm of its corner would say 2
    with pytest.raises(TypeError, match="hull region, not a staircase"):
        gromov_width(Cube(2, 1))


def test_gromov_width_equals_first_capacity():
    rng = random.Random(61)
    for _ in range(30):
        d = random_concave(rng, max_n=4)
        assert gromov_width(d) == capacity_sequence(d, 1).value(1)


def test_gromov_width_of_ellipsoids():
    rng = random.Random(67)
    for _ in range(20):
        n = rng.randint(1, 4)
        axes = tuple(F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n))
        assert gromov_width(Ellipsoid(axes).to_concave()) == min(axes)


def test_an_ellipsoid_and_its_staircase_agree():
    # gromov_width and antinorm_value take the ellipsoid as the staircase it is
    rng = random.Random(69)
    for _ in range(30):
        n = rng.randint(1, 5)
        axes = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n)]
        axes[rng.randrange(n)] = axes[0]  # a tie
        axes = [a if rng.random() < 0.7 else "inf" for a in axes[:-1]] + axes[-1:]
        e = Ellipsoid(axes)
        staircase = e.to_concave()
        assert gromov_width(e) == gromov_width(staircase) == min(e.finite_axes)
        for _ in range(5):
            v = tuple(rng.randint(1, 6) for _ in range(n))
            assert antinorm_value(e, v) == antinorm_value(staircase, v)
        assert "_scaled" not in vars(e)  # read off the axes, not the n-by-n rows


def test_obstruct_cube_into_shrunk_cylinder_union():
    report = obstruct(Cube(2, 1), CylinderUnion(2, F(9, 10)), 12)
    assert report.first_violation == 10
    # the rows expose both sequences
    assert report.rows[0] == (1, 1, F(9, 5))
    assert report.rows[9] == (10, 10, F(99, 10))


def test_obstruct_no_violation_cases():
    assert obstruct(Cube(2, 1), CylinderUnion(2, 1), 50).first_violation is None
    d = Ellipsoid((1, 2))
    assert obstruct(d, d, 20).first_violation is None


def test_obstruct_monotone_containment_never_violates():
    rng = random.Random(71)
    for _ in range(10):
        d = random_convex(rng, max_n=3, max_points=4)
        assert obstruct(d, grow_convex(rng, d), 10).first_violation is None
        c = random_concave(rng, max_n=3, max_points=4)
        assert obstruct(c, grow_concave(rng, c), 10).first_violation is None


# Values on a grid of halves, so that capacities tie across kinds whose
# sequences the engine scales onto different denominators.
HALVES = (F(1, 2), F(1), F(3, 2), F(2), F(3))


def _obstruct_domain(rng: random.Random, n: int):
    """A closed-form kind with values in HALVES, or one time in five a
    searched kind."""
    kind = rng.randrange(4) if rng.random() < 0.8 else rng.randrange(4, 6)
    if kind == 0:
        axes = [rng.choice(HALVES) for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            axes[rng.randrange(n)] = "inf"
        return Ellipsoid(axes)
    if kind == 1:
        return Polydisk([rng.choice(HALVES) for _ in range(n)])
    if kind in (2, 3):
        return (Cube, CylinderUnion)[kind - 2](n, rng.choice(HALVES))
    search = (random_convex, random_concave)[kind - 4]
    return search(rng, n=n, max_points=3)


def _obstruct_corpus() -> list:
    """(source, target, kmax): the tie at c_1 = 1 of E(1, 3/2), over
    denominator 2, and the cube of side 1, over 1, in both directions; then
    seeded pairs of every kind, K up to 30 (8 where a side is searched),
    half of them with the target scaled to tie with the source at k = 1."""
    pairs = [(Ellipsoid((1, F(3, 2))), Cube(2, 1), 6), (Cube(2, 1), Ellipsoid((1, F(3, 2))), 6)]
    rng = random.Random(2207)
    for _ in range(100):
        n = rng.randint(1, 3)
        source, target = _obstruct_domain(rng, n), _obstruct_domain(rng, n)
        if rng.random() < 0.5:  # scaled to tie with the source at k = 1
            ratio = capacity_at(source, 1).value / capacity_at(target, 1).value
            target = scale_domain(target, ratio)
        searched = {type(source), type(target)} & {ConvexToricDomain, ConcaveToricDomain}
        pairs.append((source, target, rng.randint(1, 8 if searched else 30)))
    return pairs


OBSTRUCT_CORPUS = _obstruct_corpus()


def test_obstruct_on_integers_is_the_records_comparison(tmp_path, capsys):
    # the reference: both sides' records as Fractions, compared per k
    for i, (source, target, kmax) in enumerate(OBSTRUCT_CORPUS):
        src = capacity_sequence(source, kmax).raw_values()
        tgt = capacity_sequence(target, kmax).raw_values()
        rows = tuple(zip(range(1, kmax + 1), src, tgt))
        violations = [a > b for _, a, b in rows]
        first = violations.index(True) + 1 if True in violations else None
        report = obstruct(source, target, kmax)
        assert (report.first_violation, report.rows) == (first, rows), (source, target)
        paths = []
        for side, domain in (("s", source), ("t", target)):
            paths.append(tmp_path / f"{i}{side}.json")
            paths[-1].write_text(render_domain(domain), encoding="utf-8")
        argv = ["obstruct", "--source", str(paths[0]), "--target", str(paths[1]),
                "--kmax", str(kmax), "--format", "csv"]
        assert run(argv) == 0
        column = [line.split(",")[3] for line in capsys.readouterr().out.splitlines()[1:]]
        assert column == ["1" if v else "0" for v in violations], (source, target)


def test_obstruct_corpus_ties_across_denominators_and_violates():
    ties = firsts = 0
    for source, target, kmax in OBSTRUCT_CORPUS:
        d_s, d_t = (capacity_sequence(d, kmax)._scaled[0] for d in (source, target))
        report = obstruct(source, target, kmax)
        ties += d_s != d_t and any(a == b for _, a, b in report.rows)
        firsts += report.first_violation is not None
    assert ties >= 10 and 10 <= firsts <= len(OBSTRUCT_CORPUS) - 10
    assert obstruct(*OBSTRUCT_CORPUS[0]).first_violation is None
    assert obstruct(*OBSTRUCT_CORPUS[1]).first_violation == 2


def test_obstruct_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        obstruct(Cube(2, 1), Cube(3, 1), 5)


def test_asymptotic_slope_examples():
    r = asymptotic_slope(Ellipsoid((1, 2)), 30)
    assert (r.estimate, r.exact) == (F(2, 3), F(2, 3))

    r = asymptotic_slope(Cube(2, 1), 17)
    assert (r.estimate, r.exact) == (1, 1)

    r = asymptotic_slope(CylinderUnion(2, 1), 9)
    assert r == (F(10, 9), 1, 1, F(10, 9))


def test_asymptotic_slope_bracket():
    rng = random.Random(73)
    for _ in range(15):
        d = random_convex(rng, max_n=3, max_points=4) if rng.random() < 0.5 else random_concave(
            rng, max_n=3, max_points=4
        )
        kmax = rng.randint(5, 20)
        r = asymptotic_slope(d, kmax)
        assert r.lower <= r.estimate <= r.upper
        assert r.lower == cube_capacity(d)
        assert r.upper == r.lower * (kmax + d.n - 1) / kmax


def test_lagrangian_lower_bound_is_cube_capacity():
    for d in (Ellipsoid((1, 2)), Cube(3, F(4, 5)), CylinderUnion(2, 1), Polydisk((1, 2))):
        assert lagrangian_lower_bound(d) == cube_capacity(d)
