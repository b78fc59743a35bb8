"""Permutation-symmetry detection and the orbit reduction it drives.

Detection is checked on planted groups against their elements, listed by
hand; the reduction is checked against the unreduced problem on random
problems invariant under a planted permutation, handed to it as a
signed generator with all signs +1, and its gate against data that
breaks each of its three conditions.
"""

import importlib
import itertools

import numpy as np
import pytest

from gpmkit import ConeSpec, ConicProblem, assemble, solve_conic, solve_gpm
from gpmkit.conic import lift, reduce_by_orbits
from gpmkit.dsl import parse_model
from gpmkit.relaxation import variable_permutations

from conftest import model_path


def permutations_of(text, order):
    msdp = assemble(parse_model(text), order)
    return msdp, variable_permutations(msdp)


def group_of(cycle_lists, names):
    """Every element the generators generate, each as a tuple of images."""
    at = {name: k for k, name in enumerate(names)}
    gens = []
    for cycles in cycle_lists:
        perm = list(range(len(names)))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                perm[at[a]] = at[b]
        gens.append(tuple(perm))
    group = {tuple(range(len(names)))}
    todo = list(group)
    while todo:
        g = todo.pop()
        for h in gens:
            gh = tuple(h[g[k]] for k in range(len(names)))
            if gh not in group:
                group.add(gh)
                todo.append(gh)
    return group


def rotations(n):
    return {tuple((k + t) % n for k in range(n)) for t in range(n)}


def dihedral(n):
    return rotations(n) | {tuple((t - k) % n for k in range(n)) for t in range(n)}


CYCLIC = "var x[4]; min x(1)^2*x(2) + x(2)^2*x(3) + x(3)^2*x(4) + x(4)^2*x(1);"
DIHEDRAL = (
    "var x[5]; min x(1)*x(2) + x(2)*x(3) + x(3)*x(4) + x(4)*x(5) + x(5)*x(1)"
    " + x(1)^2 + x(2)^2 + x(3)^2 + x(4)^2 + x(5)^2;"
)
# two orbits: {a, b, c} under S3 and {d, e} under S2
PRODUCT = (
    "var a; var b; var c; var d; var e;"
    " min a^2 + b^2 + c^2 + 2*d^2 + 2*e^2 + d*e; a + b + c <= 1;"
)


@pytest.mark.parametrize(
    "text,order,group",
    [
        (CYCLIC, 2, rotations(4)),
        (DIHEDRAL, 1, dihedral(5)),
        (
            PRODUCT, 1,
            {p + tuple(3 + k for k in q)
             for p in itertools.permutations(range(3))
             for q in itertools.permutations(range(2))},
        ),
    ],
    ids=["cyclic", "dihedral", "product"],
)
def test_detection_generates_the_planted_group(text, order, group):
    msdp, perms = permutations_of(text, order)
    names = [v.name for v in msdp.problem.measures[0].vars]
    gens = perms.generators[1]
    assert group_of(gens, names) == group
    # generators only, never the group: at most one per base point
    assert len(gens) < len(names)


@pytest.mark.parametrize(
    "name,order", [("camel.gpm", 3), ("rational.gpm", 1), ("quadratic3.gpm", 1), ("quadratic3.gpm", 4)]
)
def test_no_permutation_on_the_asymmetric_paper_models(name, order):
    with open(model_path(name)) as fh:
        msdp = assemble(parse_model(fh.read()), order)
    assert variable_permutations(msdp) is None


def test_a_broken_coefficient_turns_detection_off():
    assert permutations_of(CYCLIC.replace("x(4)^2*x(1)", "1.0000001*x(4)^2*x(1)"), 2)[1] is None


def test_a_broken_maxcut_edge_leaves_its_stabilizer():
    # the antiweb's 18 automorphisms; the reflection 1 <-> 2, 3 <-> 9, ...
    # alone keeps edge {1, 2} in place
    with open(model_path("maxcut_sub.gpm")) as fh:
        text = fh.read()
    msdp, perms = permutations_of(text, 1)
    names = [v.name for v in msdp.problem.measures[0].vars]
    assert group_of(perms.generators[1], names) == dihedral(9)
    msdp, perms = permutations_of(text.replace("0.5*x(1)*x(2)", "0.7*x(1)*x(2)"), 1)
    assert group_of(perms.generators[1], names) == {
        tuple(range(9)), tuple((1 - k) % 9 for k in range(9))
    }


def test_generators_permute_moments_and_blocks():
    # a localizing block follows its constraint: x(k) >= 0 rotates with x
    text = CYCLIC + " x(1) >= 0; x(2) >= 0; x(3) >= 0; x(4) >= 0;"
    msdp, perms = permutations_of(text, 2)
    (gen,) = perms.generators[1]
    (moments,), (blocks,) = perms.moments, perms.blocks
    var_of = msdp.index.var_of
    measure = msdp.problem.measures[0]
    shift = {f"x({k})": f"x({k % 4 + 1})" for k in range(1, 5)}
    assert all(shift[a] == b for cycle in gen for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    for (meas, t), k in var_of.items():
        assert var_of[(meas, t[-1:] + t[:-1])] == moments[k]
    for block, (target, rows) in zip(msdp.blocks, blocks):
        image = msdp.blocks[target]
        assert block.measure is measure and image.kind == block.kind
        np.testing.assert_array_equal(image.basis[rows], np.roll(block.basis, 1, axis=1))
        if block.kind == "localizing":
            (k,) = [int(name[2]) for name in ("x(1)", "x(2)", "x(3)", "x(4)")
                    if repr(block.source).startswith(name)]
            assert repr(image.source).startswith(f"x({k % 4 + 1})")


@pytest.mark.parametrize(
    "name,order,moments,orbits,objective",
    [("maxcut_sub.gpm", 3, 246, 21, 12.0), ("maxcut_nosub.gpm", 2, 540, 40, 12.41413)],
)
def test_maxcut_solves_over_orbits(name, order, moments, orbits, objective):
    with open(model_path(name)) as fh:
        problem = parse_model(fh.read())
    sol = solve_gpm(problem, order=order)
    assert sol.objective == pytest.approx(objective, rel=1e-8 if order == 3 else 1e-6)
    (report,) = sol.permutations.values()
    assert report["moments"] == moments and report["orbits"] == orbits
    assert len(report["generators"]) == 2
    y = sol.conic.y
    # the lifted moments are constant on orbits: here every moment of
    # degree 2 in x(i) x(j) depends only on the distance of i and j
    var_of = sol.msdp.index.var_of
    for d in (1, 2, 3, 4):
        values = []
        for i in range(9):
            t = [0] * 9
            t[i] += 1
            t[(i + d) % 9] += 1
            values.append(y[var_of[(problem.measures[0], tuple(t))]])
        assert max(values) - min(values) <= 1e-12 * (1.0 + max(map(abs, values)))


# ---------------------------------------------------------------------------
# the reduction on random invariant conic problems


def invariant_problem(rng):
    """A strictly feasible conic problem invariant under one permutation.

    The permutation g moves three free columns and three orthant entries
    in a 3-cycle, rotates the first three rows and columns of PSD block 0
    (order 4) and swaps blocks 1 and 2 (order 3) after rotating their
    rows, so g has order 6; the rows of A follow two 3-cycles and a
    2-cycle.  The data are random integers summed over the six powers of
    g, so every sum is exact and the data are invariant to the last bit.
    """
    cone = ConeSpec(f=3, l=3, s=(4, 3, 3))
    m = 9
    pi = np.array([1, 2, 0, 4, 5, 3, 7, 6, 8])
    sigma = np.empty(cone.total_length, dtype=np.int64)
    sigma[:3] = [1, 2, 0]
    sigma[3:6] = 3 + np.array([1, 2, 0])
    rot = {0: np.array([1, 2, 0, 3]), 1: np.array([1, 2, 0]), 2: np.array([0, 1, 2])}
    for k, target in ((0, 0), (1, 2), (2, 1)):
        rows = rot[k]
        sigma[cone.block_columns(k, np.arange(len(rows)))] = cone.column(
            target, rows[:, None], rows
        ).reshape(-1)

    def powers():
        p, s = np.arange(m), np.arange(cone.total_length)
        for _ in range(6):
            yield p, s
            p, s = pi[p], sigma[s]

    def symmetric(v):
        # every PSD part of a column vector or of the rows of a matrix symmetric
        v = v.copy()
        for start, s in zip(cone.psd_starts, cone.s):
            B = v[..., start:start + s * s].reshape(v.shape[:-1] + (s, s))
            v[..., start:start + s * s] = (B + np.swapaxes(B, -1, -2)).reshape(v.shape[:-1] + (-1,))
        return v

    A0 = symmetric(rng.integers(-3, 4, size=(m, cone.total_length)).astype(float))
    A = np.zeros_like(A0)
    for p, s in powers():
        A[np.ix_(p, s)] += A0

    def interior():
        parts = [np.zeros(3), rng.integers(1, 4, size=3).astype(float)]
        for s in cone.s:
            G = rng.integers(-2, 3, size=(s, s)).astype(float)
            parts.append((G @ G.T + np.eye(s)).reshape(-1))
        x = np.concatenate(parts)
        out = np.zeros_like(x)
        for _, s in powers():
            out[s] += x
        return out

    y0, r = np.zeros(m), rng.integers(-3, 4, size=m)
    for p, _ in powers():
        y0[p] += r
    x0 = interior()
    x0[:3] = 1.0
    problem = ConicProblem(A=A, b=A @ x0, c=A.T @ y0 + interior(), cone=cone)
    return problem, pi, sigma


def unsigned(problem, pi, sigma):
    """The permutation as the one signed generator of reduce_by_orbits."""
    return [(pi, sigma, np.ones(problem.m), np.ones(problem.n))]


@pytest.mark.parametrize("seed", range(8))
def test_orbit_reduction_matches_the_unreduced_problem(seed):
    problem, pi, sigma = invariant_problem(np.random.default_rng(seed))
    red = reduce_by_orbits(problem, unsigned(problem, pi, sigma))
    assert red is not None and red.problem.m == 4 and red.kept == (0,)
    whole = solve_conic(problem)
    lifted = lift(problem, red, solve_conic(red.problem))
    assert lifted.status == "solved" and whole.status == "solved"
    for obj in ("pobj", "dobj"):
        a, b = getattr(whole, obj), getattr(lifted, obj)
        assert abs(a - b) <= 1e-7 * (1.0 + abs(a)), (obj, a, b)
    A, b = problem.A, problem.b
    assert np.linalg.norm(A @ lifted.x - b) <= 1e-7 * (1.0 + np.linalg.norm(b))
    cone = problem.cone
    assert lifted.x[cone.f:cone.f + cone.l].min() >= -1e-9
    for start, s in zip(cone.psd_starts, cone.s):
        X = lifted.x[start:start + s * s].reshape(s, s)
        # entries (i, j) and (j, i) average over transposed orbits, which
        # may sum in another order
        assert np.abs(X - X.T).max() <= 1e-12 * np.abs(X).max()
        assert np.linalg.eigvalsh(0.5 * (X + X.T)).min() >= -1e-9
    # x and y are invariant: constant on the orbits of columns and rows
    np.testing.assert_array_equal(lifted.x[sigma], lifted.x)
    np.testing.assert_array_equal(lifted.y[pi], lifted.y)


@pytest.mark.parametrize("kind", ["b", "c", "A"])
def test_gate_refuses_data_the_permutation_does_not_fix(kind):
    problem, pi, sigma = invariant_problem(np.random.default_rng(0))
    A, b, c = problem.A.tolil(), problem.b.copy(), problem.c.copy()
    if kind == "b":
        b[0] += 1e-12
    elif kind == "c":
        c[3] += 1e-12
    else:
        A[0, 0] += 1e-12
    broken = ConicProblem(A=A, b=b, c=c, cone=problem.cone)
    assert reduce_by_orbits(problem, unsigned(problem, pi, sigma)) is not None
    assert reduce_by_orbits(broken, unsigned(problem, pi, sigma)) is None


@pytest.mark.parametrize(
    "text,order",
    [
        (CYCLIC + " x(1) >= -1; x(2) >= -1; x(3) >= -1; x(4) >= -1;"
         " x(1)^2 + x(2)^2 + x(3)^2 + x(4)^2 <= 4;", 2),
        (DIHEDRAL + " x(1)^2 + x(2)^2 + x(3)^2 + x(4)^2 + x(5)^2 == 5;", 2),
        (PRODUCT + " a^2 + b^2 + c^2 + d^2 + e^2 <= 3;", 2),
        # two measures: mu's x(1), x(2) swap, nu's y stays
        ("measure mu; measure nu; var x[2] in mu; var y in nu;"
         " min mom(x(1)^2*x(2) + x(2)^2*x(1) - x(1) - x(2)) + mom(y^2 - y);"
         " x(1)^2 + x(2)^2 <= 1; y^2 <= 1; mass(mu) == 1; mass(nu) == 1;", 2),
    ],
    ids=["cyclic", "dihedral", "product", "two-measures"],
)
def test_relaxations_solve_alike_with_and_without_the_orbit_reduction(monkeypatch, text, order):
    certify_module = importlib.import_module("gpmkit.certify")
    reduced = solve_gpm(parse_model(text), order=order)
    assert any(r and r["orbits"] is not None for r in reduced.permutations.values())
    monkeypatch.setattr(certify_module, "variable_permutations", lambda msdp: None)
    whole = solve_gpm(parse_model(text), order=order)
    assert reduced.status == whole.status >= 0
    assert abs(reduced.objective - whole.objective) <= 1e-6 * (1.0 + abs(whole.objective))
