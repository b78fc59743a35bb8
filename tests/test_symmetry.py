"""Sign-symmetry detection and the block split it drives.

Detection is checked on planted partial symmetries; the split is checked
against the unsplit problem on random sign-symmetric conic problems, and
its structural gate against data that breaks the symmetry in each of
the ways the gate names.
"""

import numpy as np
import pytest

from gpmkit import (
    ConeSpec,
    ConicProblem,
    GPMProblem,
    ModelContext,
    assemble,
    mass,
    minimize,
    mom,
    solve_conic,
    solve_gpm,
    to_conic,
)
from gpmkit.conic import lift, split_by_sign
from gpmkit.dsl import parse_model
from gpmkit.relaxation import sign_classes

from conftest import model_path


def classes_of(text, order):
    msdp = assemble(parse_model(text), order)
    return msdp, sign_classes(msdp)


def test_partial_symmetry_flips_only_the_even_variable():
    # x^2 + y^4 + x*y^2 is invariant under y -> -y but not under x -> -x
    msdp, classes = classes_of("var x; var y; min x^2 + y^4 + x*y^2;", 2)
    assert classes.generators == {1: [("y",)]}
    for (_, t), k in msdp.index.var_of.items():
        assert classes.moments[k] == t[1] % 2
    (block,) = msdp.blocks
    expected = [t[1] % 2 for t in block.basis.tolist()]
    assert classes.blocks[0].tolist() == expected


@pytest.mark.parametrize(
    "text,flips",
    [
        # x*y and y*z tie x, y and z together: the one flip negates all
        # three; w only appears squared and flips on its own
        ("var x; var y; var z; var w; min x*y + y*z + w^2;", [("w",), ("x", "y", "z")]),
        # found only with the pivot rows kept reduced against each other
        ("var a; var b; var c; var d; min b*c + a*d + b*d;", [("a", "b", "c", "d")]),
    ],
)
def test_flips_are_generators_of_the_whole_group(text, flips):
    _, classes = classes_of(text, 1)
    assert sorted(classes.generators[1]) == flips


@pytest.mark.parametrize(
    "text",
    [
        "var x; min x + x^2;",  # a linear objective term
        "var x; var y; min x^2 + y^2; x*y - x^2 >= 0; mom(x) == 0.5;",  # moment data
    ],
)
def test_odd_data_leaves_no_flip(text):
    assert classes_of(text, 2)[1] is None


def test_substitution_rule_x2_to_x_rules_out_the_flip_of_x():
    # x^2 -> x has an odd right side: only y may still flip
    msdp, classes = classes_of("var x; var y; min x^2 + y^2; x^2 == x;", 2)
    assert classes.generators == {1: [("y",)]}


def test_gate_rejects_the_flip_an_asymmetric_rule_breaks():
    # detection that missed the rule x^2 -> x would call x odd; the moment
    # matrix entry (x, x) then holds the odd moment of x, and the gate refuses
    msdp = assemble(parse_model("var x; var y; min x^2 + y^2; x^2 == x;"), 2)
    conic = to_conic(msdp)

    moments = np.zeros(msdp.n_vars, dtype=np.int64)
    for (_, t), k in msdp.index.var_of.items():
        moments[k] = t[0] % 2
    blocks = [b.basis[:, 0] % 2 for b in msdp.blocks]
    assert moments.any()
    assert split_by_sign(conic, moments, blocks) is None


def test_measures_get_their_own_class_bits():
    ctx = ModelContext()
    x = ctx.var("x")
    y = ctx.var("y")
    ctx.new_measure(y)
    mu, nu = ctx.measures
    problem = GPMProblem(
        minimize(mom(x**2) + mom(y**2)),
        [mass(mu) == 1, mass(nu) == 1],
    )
    msdp = assemble(problem, 2)
    classes = sign_classes(msdp)
    assert classes.generators == {mu.label: [("x",)], nu.label: [("y",)]}
    bit = {mu: 1, nu: 2}
    for (measure, t), k in msdp.index.var_of.items():
        assert classes.moments[k] == (sum(t) % 2) * bit[measure]


@pytest.mark.parametrize(
    "name,order,blocks,pinned",
    [("camel.gpm", 3, [4, 6], 12), ("maxcut_sub.gpm", 3, [37, 93], 219)],
)
def test_paper_models_split_by_parity(name, order, blocks, pinned):
    with open(model_path(name)) as fh:
        problem = parse_model(fh.read(), name)
    sol = solve_gpm(problem, order=order)
    (report,) = sol.symmetry.values()
    assert report["blocks"] == blocks and report["pinned"] == pinned
    assert len(report["generators"]) == 1
    assert len(report["generators"][0]) == len(problem.measures[0].vars)


# ---------------------------------------------------------------------------
# the split on random sign-symmetric conic problems

NCLASSES = 4  # two flip generators


def random_symmetric_problem(rng):
    """A strictly feasible conic problem invariant under two sign flips.

    Row k of class v puts its nonzeros only on block entries (i, j) with
    c_i ^ c_j == v and, for v == 0, on the orthant.  One free column
    touches class-0 rows, one more the rows of a single odd class, with
    c = 0.  The planted x0 and z0 are block-diagonal over the classes,
    y0 is 0 on the odd rows.
    """
    l = int(rng.integers(0, 3))
    sizes = tuple(int(rng.integers(3, 7)) for _ in range(int(rng.integers(1, 3))))
    rcs = [rng.integers(0, NCLASSES, size=s) for s in sizes]
    for rc in rcs:
        rc[0] = 0
    masks = [np.bitwise_xor.outer(rc, rc) for rc in rcs]
    # distinct entries of each class: how many independent rows it carries
    capacity = np.zeros(NCLASSES, dtype=int)
    capacity[0] = l
    for mask in masks:
        iu = np.triu_indices(mask.shape[0])
        capacity += np.bincount(mask[iu], minlength=NCLASSES)
    row_class = np.concatenate(
        [np.full(int(rng.integers(1, min(c, 3) + 1)), v)
         for v, c in enumerate(capacity) if c]
    )
    odd = [v for v in np.unique(row_class) if v]
    odd_class = int(rng.choice(odd)) if odd else 0

    rows = []
    for v in row_class:
        free = [rng.normal() if v == 0 else 0.0,
                rng.normal() if v == odd_class and v else 0.0]
        parts = [np.array(free), rng.normal(size=l) if v == 0 else np.zeros(l)]
        for mask in masks:
            S = rng.normal(size=mask.shape)
            parts.append(np.where(mask == v, S + S.T, 0.0).reshape(-1))
        rows.append(np.concatenate(parts))
    A = np.vstack(rows)
    cone = ConeSpec(f=2, l=l, s=sizes)

    def interior():
        parts = [np.zeros(2), rng.uniform(0.5, 1.5, size=l)]
        for rc in rcs:
            G = rng.normal(size=(rc.size, rc.size))
            P = G @ G.T + 0.5 * np.eye(rc.size)
            parts.append(np.where(np.equal.outer(rc, rc), P, 0.0).reshape(-1))
        return np.concatenate(parts)

    x0 = interior()
    x0[0] = rng.normal()
    y0 = np.where(row_class == 0, rng.normal(size=row_class.size), 0.0)
    problem = ConicProblem(A=A, b=A @ x0, c=A.T @ y0 + interior(), cone=cone)
    return problem, row_class, rcs, masks


@pytest.mark.parametrize("seed", range(12))
def test_split_matches_the_unsplit_problem(seed):
    problem, row_class, rcs, masks = random_symmetric_problem(np.random.default_rng(seed))
    split = split_by_sign(problem, row_class, rcs)
    assert split is not None
    assert split.problem.cone.s == tuple(n for rc in rcs for n in np.bincount(rc)[np.unique(rc)])
    whole = solve_conic(problem)
    lifted = lift(problem, split, solve_conic(split.problem))
    assert whole.status == lifted.status == "solved"
    for obj in ("pobj", "dobj"):
        a, b = getattr(whole, obj), getattr(lifted, obj)
        assert abs(a - b) <= 1e-7 * (1.0 + abs(a)), (obj, a, b)
    A = problem.A
    assert np.linalg.norm(A @ lifted.x - problem.b) <= 1e-7 * (1.0 + np.linalg.norm(problem.b))
    np.testing.assert_array_equal(lifted.z, problem.c - A.T @ lifted.y)
    assert not lifted.y[row_class != 0].any()
    for start, mask in zip(problem.cone.psd_starts, masks):
        X = lifted.x[start:start + mask.size].reshape(mask.shape)
        assert not X[mask != 0].any()


def _mixed_entry(masks, cone):
    """Columns of entries (i, j) and (j, i) of a block with c_i ^ c_j != 0."""
    for start, mask in zip(cone.psd_starts, masks):
        hits = np.argwhere(mask != 0)
        if hits.size:
            i, j = hits[0]
            return start + i * mask.shape[0] + j, start + j * mask.shape[0] + i
    raise AssertionError("no mixed entry")


def _break(kind, problem, row_class, masks):
    A, b, c = problem.A.tolil(), problem.b.copy(), problem.c.copy()
    odd_row = int(np.flatnonzero(row_class)[0])
    even_row = int(np.flatnonzero(row_class == 0)[0])
    if kind == "b on a pinned row":
        b[odd_row] = 1.0
    elif kind == "c on a mixed entry":
        for col in _mixed_entry(masks, problem.cone):
            c[col] = 0.5
    elif kind == "A entry of the wrong class":
        for col in _mixed_entry(masks, problem.cone):
            A[even_row, col] = 0.5
    elif kind == "orthant column on a pinned row":
        A[odd_row, problem.cone.f] = 1.0
    elif kind == "free column over two classes":
        A[odd_row, 0] = 1.0
    elif kind == "odd free column with c":
        A[odd_row, 1] = 1.0
        A[row_class != row_class[odd_row], 1] = 0.0
        c[1] = 1.0
    return ConicProblem(A=A, b=b, c=c, cone=problem.cone)


@pytest.mark.parametrize(
    "kind",
    [
        "b on a pinned row",
        "c on a mixed entry",
        "A entry of the wrong class",
        "orthant column on a pinned row",
        "free column over two classes",
        "odd free column with c",
    ],
)
def test_gate_refuses_asymmetric_data(kind):
    for seed in range(50):
        problem, row_class, rcs, masks = random_symmetric_problem(np.random.default_rng(seed))
        if row_class.any() and problem.cone.l:
            break
    assert split_by_sign(problem, row_class, rcs) is not None
    broken = _break(kind, problem, row_class, masks)
    assert split_by_sign(broken, row_class, rcs) is None
