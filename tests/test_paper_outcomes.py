"""End-to-end solve outcomes of the paper's examples (GloptiPoly 3, 2007).

Each case solves a model file through solve_gpm and checks the status,
the objective, where given the status of the top-level interior-point
solve, and, when certified, that every extracted atom is one of the
paper's minimizers.  The number of atoms is not checked: on a face
with several minimizers a valid certificate may expose only some of
them.

The forced-entry reduction leaves some moments of the top-level point
undetermined, and certification ranks only the determined truncations.
quadratic3 at order 4 has ranks 1, 2, 2, 2 up to degree 3 and an
undetermined M_4; it certifies both paper atoms from the flat
truncation M_2 of the top-level point, without a re-centering solve,
on every extraction seed of 0-59.  camel at orders 3, 4 and 5 leaves
x2^6 and the moments above it free, so its one determined flat
truncation, t = 2, is below half the objective degree 6; each order
certifies through the re-centering face solve, whose point fills the
free moments with a flat extension of rank 2.
"""

import itertools

import numpy as np
import pytest

from gpmkit import solve_gpm
from gpmkit.dsl import parse_model

from conftest import model_path

CAMEL_ATOMS = [(0.0898, -0.7127), (-0.0898, 0.7127)]
QUADRATIC3_ATOMS = [(2.0, 0.0, 0.0), (0.5, 0.0, 3.0)]

CASES = [
    ("camel.gpm", 3, 1, -1.0316, CAMEL_ATOMS),
    ("rational.gpm", 1, 1, -1.0 / 3.0, [(0.5,)]),
    ("quadratic3.gpm", 1, 0, -6.0, None),
    ("quadratic3.gpm", 2, 0, -5.6923, None),
    ("quadratic3.gpm", 3, 0, -4.0685, None),
    ("quadratic3.gpm", 4, 1, -4.0, QUADRATIC3_ATOMS),
    # max-cut of the 9-node antiweb: 12 under the substituted encoding,
    # and the order-2 bound 12.4141 under the plain one
    ("maxcut_sub.gpm", 3, 0, 12.0, None),
    ("maxcut_nosub.gpm", 2, 0, 12.4141, None),
    # new cases go last: the case ids number the atom lists by position
    ("camel.gpm", 4, 1, -1.0316, CAMEL_ATOMS),
    ("camel.gpm", 5, 1, -1.0316, CAMEL_ATOMS),
]

# status of the top-level interior-point solve, for the cases that pin it
IPM_STATUS = {
    ("camel.gpm", 3): "solved",
    ("rational.gpm", 1): "solved",
    ("quadratic3.gpm", 1): "solved",
    ("maxcut_sub.gpm", 3): "solved",
}


@pytest.mark.parametrize("name,order,status,objective,atoms", CASES)
def test_paper_outcome(name, order, status, objective, atoms):
    with open(model_path(name)) as fh:
        problem = parse_model(fh.read(), name)
    sol = solve_gpm(problem, order=order)
    assert sol.status == status
    assert sol.objective == pytest.approx(objective, abs=1e-4)
    ipm = IPM_STATUS.get((name, order))
    if ipm is not None:
        assert sol.conic.status == ipm, sol.conic.message
    if atoms is None:
        return
    points, _ = sol.support(1)
    assert len(points) >= 1
    for point in points:
        dist = min(np.max(np.abs(point - np.asarray(a))) for a in atoms)
        assert dist < 1e-3, (point, atoms)


@pytest.mark.parametrize("seed", [13, 46])
def test_quadratic3_order_four_extracts_the_closest_atoms(seed):
    """At these seeds the first combination whose atoms fit the moments
    of M_2 breaks support constraints by 5.1e-4 and 6.3e-4, above the
    feasibility tolerance; a later one fits closer and certifies from
    M_2."""
    with open(model_path("quadratic3.gpm")) as fh:
        problem = parse_model(fh.read(), "quadratic3.gpm")
    sol = solve_gpm(problem, order=4, seed=seed)
    assert sol.status == 1
    assert sol.certificate.extractions[1].degree == 2
    points, _ = sol.support(1)
    assert len(points) == 2
    for atom in QUADRATIC3_ATOMS:
        assert min(np.max(np.abs(point - np.asarray(atom))) for point in points) < 1e-3


def test_maxcut_order_four_solves_on_symmetry_adapted_blocks():
    """At order 4 the rotation splits both blocks, of orders 163 and 93,
    into blocks of order 36 or less, and the solve still ends solved at
    the max-cut value."""
    with open(model_path("maxcut_sub.gpm")) as fh:
        problem = parse_model(fh.read(), "maxcut_sub.gpm")
    sol = solve_gpm(problem, order=4)
    assert sol.conic.status == "solved", sol.conic.message
    assert sol.objective == pytest.approx(12.0, abs=1e-6)
    assert max(sol.conic.blocks) == 36


def test_maxcut_order_five_certifies_every_maximum_cut():
    """At order 5 the max-cut relaxation is flat: status 1 with 78 atoms,
    the 39 maximum cuts of the antiweb graph and their negations."""
    with open(model_path("maxcut_sub.gpm")) as fh:
        problem = parse_model(fh.read(), "maxcut_sub.gpm")
    sol = solve_gpm(problem, order=5)
    assert sol.status == 1
    assert sol.objective == pytest.approx(12.0, rel=1e-8)
    points, _ = sol.support(1)
    assert len(points) == 78
    signs = np.sign(points)
    assert np.abs(points - signs).max() < 1e-6

    # every +-1 vector and its cut value, from the objective polynomial
    measure = problem.measures[0]
    ((_, poly),) = problem.objective.expr.terms_by_label()
    cube = [np.array(v) for v in itertools.product((-1.0, 1.0), repeat=len(measure.vars))]
    values = np.array([poly.eval(dict(zip(measure.vars, v))) for v in cube])
    assert values.max() == 12.0
    best = {tuple(v) for v, value in zip(cube, values) if value == 12.0}
    assert {tuple(s) for s in signs} == best and len(best) == 78
