"""Sign-symmetry detection, the orbit reduction it drives, and the
pattern split that turns the pinned moments into parity blocks.

Detection is checked on planted partial symmetries.  The flips, as
signed generators of the orbit reduction followed by the pattern split,
are checked against the unreduced problem on random sign-symmetric
conic problems, and the reduction's check against data that breaks a
flip in each of six ways.  The pattern split alone is checked on
planted block-diagonal data under a random permutation.
"""

import importlib

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
import gpmkit.conic as conic_module
from gpmkit.conic import lift, reduce_by_orbits, sign_flips, split_by_pattern
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
    assert reduce_by_orbits(conic, sign_flips(conic, moments, blocks)) is None


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


def by_smallest_row(rc):
    """Orders of the classes of block rows rc, by their smallest row."""
    _, first, sizes = np.unique(rc, return_index=True, return_counts=True)
    return sizes[np.argsort(first)].tolist()


@pytest.mark.parametrize("seed", range(12))
def test_split_matches_the_unsplit_problem(seed):
    problem, row_class, rcs, masks = random_symmetric_problem(np.random.default_rng(seed))
    flips = sign_flips(problem, row_class, rcs)
    red = reduce_by_orbits(problem, flips)
    assert red is not None and red.kept == tuple(range(len(flips)))
    split = split_by_pattern(red.problem)
    assert split is not None
    # one block per parity class, ordered by smallest row, and the odd
    # free column without rows left
    assert split.problem.cone.s == tuple(n for rc in rcs for n in by_smallest_row(rc))
    assert split.problem.cone.f == 1
    whole = solve_conic(problem)
    lifted = lift(problem, red, lift(red.problem, split, solve_conic(split.problem)))
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
    """Columns of entries (i, j) and (j, i) of a block with c_i ^ c_j != 0,
    and that class."""
    for start, mask in zip(cone.psd_starts, masks):
        hits = np.argwhere(mask != 0)
        if hits.size:
            i, j = hits[0]
            return (start + i * mask.shape[0] + j, start + j * mask.shape[0] + i), int(mask[i, j])
    raise AssertionError("no mixed entry")


def _break(kind, problem, row_class, masks):
    """The problem with one flip broken, and the class of the break."""
    A, b, c = problem.A.tolil(), problem.b.copy(), problem.c.copy()
    odd_row = int(np.flatnonzero(row_class)[0])
    even_row = int(np.flatnonzero(row_class == 0)[0])
    broken = int(row_class[odd_row])
    if kind == "b on a pinned row":
        b[odd_row] = 1.0
    elif kind == "c on a mixed entry":
        cols, broken = _mixed_entry(masks, problem.cone)
        for col in cols:
            c[col] = 0.5
    elif kind == "A entry of the wrong class":
        cols, broken = _mixed_entry(masks, problem.cone)
        for col in cols:
            A[even_row, col] = 0.5
    elif kind == "orthant column on a pinned row":
        A[odd_row, problem.cone.f] = 1.0
    elif kind == "free column over two classes":
        A[odd_row, 0] = 1.0
    elif kind == "odd free column with c":
        A[odd_row, 1] = 1.0
        A[row_class != row_class[odd_row], 1] = 0.0
        c[1] = 1.0
    return ConicProblem(A=A, b=b, c=c, cone=problem.cone), broken


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
        # each flip negates some row, so alone it pins some moment
        if problem.cone.l and all((row_class >> t & 1).any() for t in range(2)):
            break
    flips = sign_flips(problem, row_class, rcs)
    assert len(flips) == 2 and reduce_by_orbits(problem, flips).kept == (0, 1)
    broken, bits = _break(kind, problem, row_class, masks)
    # the flips of the bits of the broken class go, each alone and with
    # the other; a flip the break leaves alone stays
    flips = sign_flips(broken, row_class, rcs)
    for t, flip in enumerate(flips):
        assert (reduce_by_orbits(broken, [flip]) is None) == bool(bits >> t & 1)
    red = reduce_by_orbits(broken, flips)
    kept = tuple(t for t in range(2) if not bits >> t & 1)
    assert (red is None) if not kept else (red.kept == kept)


# ---------------------------------------------------------------------------
# two flips and a swap: the swap maps the x(1)-odd block onto the x(2)-odd one

FLIPS_AND_SWAP = (
    "var x[2]; min x(1)^4 + x(2)^4 + x(1)^2*x(2)^2 - 2*x(1)^2 - 2*x(2)^2;"
    " x(1)^2 + x(2)^2 <= 3;"
)


def test_two_flips_and_a_swap_solve_alike_with_and_without_the_reduction(monkeypatch):
    certify_module = importlib.import_module("gpmkit.certify")
    blocks = []
    solve = conic_module.solve

    def recording(problem, *args, **kwargs):
        blocks.append(problem.cone.s)
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(conic_module, "solve", recording)
    sol = solve_gpm(parse_model(FLIPS_AND_SWAP), order=3)
    (report,) = sol.symmetry.values()
    assert report["generators"] == [["x(1)"], ["x(2)"]]
    # moment matrix rows 1, x1, x2, x1^2, x1x2, x2^2, x1^3, x1^2x2, x1x2^2,
    # x2^3 in classes 0, 1, 2, 0, 3, 0, 1, 2, 1, 2 (bit 0 for x1, bit 1
    # for x2), then the localizing block's rows 1, x1, x2, x1^2, x1x2,
    # x2^2; each block's classes by smallest row
    assert report["blocks"] == [3, 3, 3, 1, 3, 1, 1, 1]
    assert report["pinned"] == 18
    (perms,) = sol.permutations.values()
    assert perms["generators"] == [[["x(1)", "x(2)"]]]
    # the swap pairs the even moments x1^2 with x2^2, x1^4 with x2^4 ...
    assert perms["moments"] == 9 and perms["orbits"] == 5
    # the rotation splits the class-0 blocks of the moment and the
    # localizing matrix, rows 1, x1^2, x2^2, each into 2 + 1 along the
    # swap: x1^2 - x2^2 apart from 1 and x1^2 + x2^2
    (cone,) = blocks
    assert cone == (2, 1, 3, 3, 1, 2, 1, 1, 1, 1)
    assert sol.status == 1 and len(sol.support(1)[0]) == 4
    monkeypatch.setattr(certify_module, "sign_classes", lambda msdp: None)
    monkeypatch.setattr(certify_module, "variable_permutations", lambda msdp: None)
    whole = solve_gpm(parse_model(FLIPS_AND_SWAP), order=3)
    assert sol.status == whole.status
    assert abs(sol.objective - whole.objective) <= 1e-6 * (1.0 + abs(whole.objective))
    for label, moments in whole.moments.items():
        assert np.abs(sol.moments[label] - moments).max() <= 1e-5


# ---------------------------------------------------------------------------
# the pattern split on planted block-diagonal data


def planted_blocks(rng):
    """A strictly feasible problem whose PSD block is block-diagonal under
    a random permutation of its rows, with columns that hold no data.

    The block holds components of orders 3, 2 and 4 and one row without
    any data (a dead 1 x 1 component); free column 0 and orthant columns
    0 and 2 carry data, free column 1 and orthant column 1 none.  The
    planted x0 and z0 are block-diagonal too.  Returns the problem, the
    components as rows of the permuted block, and the dead columns.
    """
    sizes = (3, 2, 4, 1)
    s = sum(sizes)
    perm = rng.permutation(s)
    parts = np.split(perm, np.cumsum(sizes)[:-1])
    live = parts[:3]
    m = 6
    cone = ConeSpec(f=2, l=3, s=(s,))
    dead = np.array([1, cone.f + 1])

    def block(fill):
        B = np.zeros((s, s))
        for R in live:
            B[np.ix_(R, R)] = fill(R.size)
        return B.reshape(-1)

    def sym(k):
        S = rng.normal(size=(k, k))
        return S + S.T

    def pd(k):
        G = rng.normal(size=(k, k))
        return G @ G.T + 0.5 * np.eye(k)

    A = np.vstack([
        np.concatenate([[rng.normal(), 0.0], [rng.normal(), 0.0, rng.normal()], block(sym)])
        for _ in range(m)
    ])
    x0 = np.concatenate([[rng.normal(), 0.0], rng.uniform(0.5, 1.5, size=3), block(pd)])
    y0 = rng.normal(size=m)
    z0 = np.concatenate([[0.0, 0.0], rng.uniform(0.5, 1.5, size=3), block(pd)])
    z0[dead] = 0.0
    c = A.T @ y0 + z0
    return ConicProblem(A=A, b=A @ x0, c=c, cone=cone), live, dead, parts[3]


@pytest.mark.parametrize("seed", range(6))
def test_pattern_split_recovers_planted_blocks(monkeypatch, seed):
    problem, live, dead, (lone,) = planted_blocks(np.random.default_rng(seed))
    split = split_by_pattern(problem)
    by_row = sorted(live, key=min)
    assert split.problem.cone == ConeSpec(f=1, l=2, s=tuple(R.size for R in by_row))
    cone = problem.cone
    kept = np.concatenate([[0, 2, 4]] + [cone.block_columns(0, np.sort(R)) for R in by_row])
    np.testing.assert_array_equal(split.X.tocsc().indices, kept)
    sol = solve_conic(problem)
    monkeypatch.setattr(conic_module, "split_by_pattern", lambda problem: None)
    whole = solve_conic(problem)
    assert sol.status == whole.status == "solved"
    for obj in ("pobj", "dobj"):
        a, b = getattr(whole, obj), getattr(sol, obj)
        assert abs(a - b) <= 1e-7 * (1.0 + abs(a)), (obj, a, b)
    A, b = problem.A, problem.b
    assert np.abs(A @ sol.x - b).max() <= 1e-8 * (1.0 + np.abs(b).max())
    np.testing.assert_array_equal(sol.z, problem.c - A.T @ sol.y)
    # the dead columns, the dead row and the entries between components are 0
    X = sol.x[cone.psd_starts[0]:].reshape(cone.s[0], cone.s[0])
    assert not sol.x[dead].any() and not X[lone].any() and not X[:, lone].any()
    label = np.zeros(cone.s[0], dtype=int)
    for k, R in enumerate(live):
        label[R] = k + 1
    assert not X[np.not_equal.outer(label, label)].any()


def test_pattern_split_leaves_a_connected_problem_alone():
    msdp = assemble(parse_model("var x; var y; min x^2*y^2 + x + y; x^2 + y^2 <= 1;"), 2)
    assert split_by_pattern(to_conic(msdp)) is None
