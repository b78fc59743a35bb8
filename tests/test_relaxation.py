"""Assembly bookkeeping, substitution rules and hierarchy equivalence."""

import itertools

import numpy as np
import pytest

from gpmkit import (
    GPMProblem,
    ModelContext,
    SolverParams,
    assemble,
    default_order,
    expression_value,
    extract_substitution_rules,
    format_block_sizes,
    mass,
    minimize,
    mmat_values,
    mom,
    mvec,
    mvec_values,
    parse_model,
    solve_gpm,
)
from gpmkit.dsl import build, parse_source
from gpmkit.polynomials import (
    ExponentMap,
    Monomial,
    Polynomial,
    as_varref,
    basis_size,
    exponent_array,
    grlex_key,
)
from gpmkit.relaxation import AssemblyError, MomentIndex, _inter_reduce, _Rules

from conftest import (
    ReferenceForms,
    ReferenceRewriter,
    camel_problem,
    model_path,
    planted_instance,
    quadratic3_problem,
    reference_inter_reduce,
)


def load_fixture(name):
    path = model_path(name)
    with open(path) as fh:
        return parse_model(fh.read(), path)


def test_camel_assembly_counts():
    ctx, problem = camel_problem()
    assert default_order(problem) == 3
    msdp = assemble(problem)
    r = msdp.report
    assert r.order == 3
    assert r.total_monomials == 28
    assert r.n_decision_vars == 27
    assert r.block_sizes == [10]
    assert r.n_lin_eq == 0
    assert r.n_lin_ineq == 0
    assert r.default_mass_labels == [1]
    assert msdp.n_vars == 27


def test_quadratic3_hierarchy_counts():
    ctx, problem = quadratic3_problem()
    assert default_order(problem) == 1
    expected = {
        1: (9, 0, 8, [4]),
        2: (34, 0, 0, [10] + [4] * 8),
        3: (83, 0, 0, [20] + [10] * 8),
        4: (164, 0, 0, [35] + [20] * 8),
    }
    for order, (nvars, neq, nineq, blocks) in expected.items():
        r = assemble(problem, order).report
        assert r.n_decision_vars == nvars
        assert r.n_lin_eq == neq
        assert r.n_lin_ineq == nineq
        assert r.block_sizes == blocks
        assert r.n_support_constraints == 8
        assert r.n_support_substitutions == 0


def test_maxcut_substituted_counts():
    problem = load_fixture("maxcut_sub.gpm")
    msdp = assemble(problem, 3)
    r = msdp.report
    assert r.total_monomials == 5005
    assert r.n_decision_vars == 465
    assert r.block_sizes == [130]
    assert r.n_lin_eq == 0
    assert r.n_support_substitutions == 9


def _row_form(rows, k):
    """Row k of LinearRows as (const, coefficient dict)."""
    coeffs = rows.coeffs
    span = slice(coeffs.indptr[k], coeffs.indptr[k + 1])
    return rows.const[k], dict(zip(coeffs.indices[span].tolist(), coeffs.data[span].tolist()))


def _product_forms_match(msdp):
    """Every block entry equals the reference form of its product polynomial."""
    ref = ReferenceForms(msdp.problem, msdp.order)
    for block in msdp.blocks:
        g = Polynomial.constant(1.0) if block.source is None else block.source.gform()
        s = block.size
        assert len(block.rows) == s * (s + 1) // 2
        assert set(zip(block.rows.tolist(), block.cols.tolist())) == {
            (i, j) for i in range(s) for j in range(i, s)
        }
        for i, j, k in zip(block.rows, block.cols, block.slot):
            const, coeffs = _row_form(block.forms, k)
            prod = Polynomial({block.basis[i]: 1.0}) * Polynomial({block.basis[j]: 1.0})
            want = ref.form_of_poly(block.measure, g * prod)
            assert const == want.const
            assert coeffs == want.coeffs


def _raw_is_grlex(msdp):
    for measure in msdp.problem.measures:
        n = len(measure.vars)
        monos = [
            Monomial(tuple(zip(measure.vars, exps)))
            for exps in itertools.product(range(2 * msdp.order + 1), repeat=n)
            if sum(exps) <= 2 * msdp.order
        ]
        ref = sorted(monos, key=lambda m: grlex_key(m, measure.vars))
        assert msdp.index.raw[measure] == ref


def test_localizing_entries_match_polynomial_products():
    ctx, problem = quadratic3_problem()
    msdp = assemble(problem, 2)
    assert [b.kind for b in msdp.blocks].count("localizing") == 8
    _product_forms_match(msdp)
    _raw_is_grlex(msdp)


def test_substituted_entries_match_polynomial_products():
    problem = load_fixture("maxcut_sub.gpm")
    msdp = assemble(problem, 2)
    assert msdp.report.n_support_substitutions == 9
    _product_forms_match(msdp)
    _raw_is_grlex(msdp)
    # every representative is multilinear and numbered in grlex order
    measure = problem.measures[0]
    reps = [mono for _, mono in msdp.index.var_meaning]
    assert all(p == 1 for mono in reps for _, p in mono.exps)
    kept = set(reps)
    assert reps == [m for m in msdp.index.raw[measure] if m in kept]


def test_maxcut_plain_equality_counts():
    problem = load_fixture("maxcut_nosub.gpm")
    msdp = assemble(problem, 3)
    r = msdp.report
    assert r.total_monomials == 5005
    assert r.n_decision_vars == 5004
    assert r.block_sizes == [220]
    assert r.n_lin_eq == 6435
    assert r.n_support_substitutions == 0


def test_rational_fixture_keeps_mass_free():
    problem = load_fixture("rational.gpm")
    msdp = assemble(problem)
    r = msdp.report
    assert r.default_mass_labels == []
    assert r.n_moment_constraints == 1
    assert r.n_decision_vars == 3
    assert r.n_lin_eq == 1
    assert r.block_sizes == [2]


def test_order_below_minimum_rejected():
    ctx, problem = camel_problem()
    with pytest.raises(AssemblyError, match="exceeds relaxation order"):
        assemble(problem, 2)


def test_inconsistent_substitutions():
    ctx = ModelContext()
    x = ctx.var("x")
    problem = GPMProblem(minimize(mom(x)), [x ** 2 == 1, x ** 2 == 2])
    with pytest.raises(AssemblyError, match="inconsistent substitutions"):
        assemble(problem, 1)


def test_duplicate_consistent_rule_counted_once():
    ctx = ModelContext()
    x = ctx.var("x")
    problem = GPMProblem(minimize(mom(x)), [x ** 2 == 1, x ** 2 == 1])
    r = assemble(problem, 1).report
    assert r.n_support_substitutions == 2
    assert r.n_decision_vars == 1  # only the first moment survives


def test_growing_rule_demoted_to_equality():
    # rewriting x^2 as x^3 cannot terminate; the rule is kept as an
    # explicit equality row instead
    ctx = ModelContext()
    x = ctx.var("x")
    problem = GPMProblem(minimize(mom(x)), [x ** 2 == x ** 3])
    r = assemble(problem, 2).report
    assert r.n_support_substitutions == 0
    assert r.n_lin_eq == 1
    assert r.n_decision_vars == 4


def test_nonterminating_rule_set_rejected():
    ctx = ModelContext()
    x = ctx.vars("x", 2)
    problem = GPMProblem(
        minimize(mom(x[0])), [x[0] * x[1] == x[0] ** 2 + x[1] ** 2]
    )
    with pytest.raises(AssemblyError, match="substitution not terminating"):
        assemble(problem, 2)


def test_rewrite_rule_with_polynomial_right_side():
    # y^2 -> x*y + 1 rewrites every monomial to y-degree at most one;
    # the normal forms below follow by hand from repeated substitution
    ctx = ModelContext()
    x, y = ctx.var("x"), ctx.var("y")
    problem = GPMProblem(minimize(mom(x)), [y ** 2 == x * y + 1])
    msdp = assemble(problem, 2)
    measure = problem.measures[0]
    expected = {
        (0, 2): x * y + 1,
        (1, 2): x ** 2 * y + x,
        (0, 3): x ** 2 * y + x + y,
        (2, 2): x ** 3 * y + x ** 2,
        (0, 4): x ** 3 * y + x ** 2 + 2 * x * y + 1,
    }
    for (px, py), poly in expected.items():
        mono = next(iter((x ** px * y ** py).terms))
        assert msdp.index.reduce(measure, mono).equals(poly)
    yvar = as_varref(y)
    assert all(mono.exponent(yvar) <= 1 for _, mono in msdp.index.var_meaning)


def test_swapped_rule_pair_keeps_one():
    ctx = ModelContext()
    x = ctx.vars("x", 2)
    problem = GPMProblem(
        minimize(mom(x[0])), [x[0] ** 2 == x[1] ** 2, x[1] ** 2 == x[0] ** 2]
    )
    r = assemble(problem, 2).report
    assert r.n_support_substitutions == 2
    assert r.n_lin_eq == 0


def _rule_set_problems():
    ctx = ModelContext()
    x, y = ctx.var("x"), ctx.var("y")
    yield "polynomial right side", GPMProblem(minimize(mom(x)), [y ** 2 == x * y + 1])
    ctx = ModelContext()
    x = ctx.vars("x", 2)
    yield "swapped pair", GPMProblem(
        minimize(mom(x[0])), [x[0] ** 2 == x[1] ** 2, x[1] ** 2 == x[0] ** 2]
    )
    ctx = ModelContext()
    x = ctx.var("x")
    yield "growing rule", GPMProblem(minimize(mom(x)), [x ** 2 == x ** 3])
    # x^2 -> y^3 is kept and raises the degree: at order 2, x^2 y^2 and
    # x^4 stay representatives because their rewrites leave the cap
    ctx = ModelContext()
    x, y = ctx.var("x"), ctx.var("y")
    yield "rule past the degree cap", GPMProblem(minimize(mom(x)), [x ** 2 == y ** 3])


def _representative_cases():
    for name in ("camel", "rational", "quadratic3", "maxcut_sub", "maxcut_nosub"):
        with open(model_path(f"{name}.gpm")) as fh:
            built = build(parse_source(fh.read(), filename=name))
        orders = {built.order or default_order(built.problem), 4}
        if name.startswith("maxcut"):
            orders |= {2, 3}
        for order in sorted(orders):
            yield pytest.param(built.problem, order, id=f"{name}-{order}")
    for label, problem in _rule_set_problems():
        for order in (2, 3):
            yield pytest.param(problem, order, id=f"{label}-{order}")


@pytest.mark.parametrize("problem,order", _representative_cases())
def test_representatives_match_reducing_every_tuple(problem, order):
    # the divisibility screen must keep exactly the tuples whose normal
    # form is the tuple itself
    rules = extract_substitution_rules(problem, order).rules
    index = MomentIndex(problem.measures, order, rules)
    for measure in index.measures:
        exponents = index.exponents[measure]
        rw = ReferenceRewriter(
            exponents,
            [(exponents.of(r.lhs), exponents.terms(r.rhs)) for r in rules if r.measure is measure],
            2 * order,
            [10 * basis_size(len(measure.vars), 2 * order)],
        )
        tuples = map(tuple, index.raw_exponents[measure].tolist())
        reference = [t for t in tuples if rw.reduce(t) == {t: 1.0}]
        assert index.representatives[measure] == reference


def test_a_rule_past_the_degree_cap_keeps_its_left_side_multiple():
    _, problem = list(_rule_set_problems())[-1]
    index = MomentIndex(problem.measures, 2, extract_substitution_rules(problem, 2).rules)
    reps = index.representatives[problem.measures[0]]
    assert (2, 2) in reps and (4, 0) in reps
    assert (2, 0) not in reps and (2, 1) not in reps


# -- batched normal forms and forms against the one-tuple-at-a-time reference

# not dyadic, so that sums of products depend on their order
NON_DYADIC = [-1.3, -1.0, -0.7, 0.1, 0.3, 0.7, 2.9]


def _random_rule_table(rng, nvars, cap, growing):
    """Rules of degree 2 or 3 with polynomial right sides of lower degree,
    plus, when ``growing``, one rule whose right side raises the degree."""
    table = {}
    tuples = exponent_array(nvars, cap).tolist()
    lhs_pool = [t for t in tuples if 2 <= sum(t) <= 3]
    for _ in range(int(rng.integers(1, 4))):
        lhs = tuple(lhs_pool[int(rng.integers(len(lhs_pool)))])
        lower = [tuple(t) for t in tuples if sum(t) < sum(lhs)]
        picks = rng.choice(len(lower), size=min(len(lower), int(rng.integers(1, 5))), replace=False)
        table[lhs] = {lower[k]: float(rng.choice(NON_DYADIC)) for k in picks}
    if growing:
        lhs = tuple(lhs_pool[int(rng.integers(len(lhs_pool)))])
        higher = [tuple(t) for t in tuples if sum(t) == sum(lhs) + 1]
        lower = [tuple(t) for t in tuples if sum(t) < sum(lhs)]
        table[lhs] = {
            higher[int(rng.integers(len(higher)))]: float(rng.choice(NON_DYADIC)),
            lower[int(rng.integers(len(lower)))]: float(rng.choice(NON_DYADIC)),
        }
    return table


def _exponent_map(nvars):
    return ExponentMap([as_varref(v) for v in ModelContext().vars("x", nvars)])


@pytest.mark.parametrize("seed", range(40))
def test_batched_normal_forms_match_the_reference_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    nvars = 2 + seed % 2
    cap = 2 * (2 + seed % 3)
    exponents = _exponent_map(nvars)
    table = _random_rule_table(rng, nvars, cap, growing=seed % 4 == 3)
    budget = 10 * basis_size(nvars, cap)
    try:
        want = reference_inter_reduce(exponents, table, cap, [budget])
    except AssemblyError:
        with pytest.raises(AssemblyError, match="not terminating"):
            _inter_reduce(exponents, table, cap, [budget])
        return
    got = _inter_reduce(exponents, table, cap, [budget])
    assert [list(t.items()) for t in got[0].values()] == [
        list(t.items()) for t in want[0].values()
    ]
    assert list(got[0]) == list(want[0]) and got[1] == want[1]

    rules = list(want[0].items())
    rw = ReferenceRewriter(exponents, rules, cap, [budget])
    exps = exponent_array(nvars, cap)
    try:
        reference = [list(rw.reduce(t).items()) for t in map(tuple, exps.tolist())]
    except AssemblyError:
        with pytest.raises(AssemblyError, match="not terminating"):
            _Rules(exponents, rules, cap).normal_forms(exps)
        return
    nf, terminals = _Rules(exponents, rules, cap).normal_forms(exps[::-1])
    nf = nf[::-1]
    for k, expected in enumerate(reference):
        span = slice(nf.indptr[k], nf.indptr[k + 1])
        row = zip(map(tuple, terminals[nf.indices[span]].tolist()), nf.data[span].tolist())
        assert list(row) == expected


def test_random_rule_sets_cover_caps_and_long_sums():
    # the seeds above reach rules that leave the cap and normal forms
    # summing three or more products into one coefficient
    capped = long_sums = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        nvars, cap = 2 + seed % 2, 2 * (2 + seed % 3)
        exponents = _exponent_map(nvars)
        table = _random_rule_table(rng, nvars, cap, growing=seed % 4 == 3)
        try:
            kept, _ = reference_inter_reduce(exponents, table, cap, [10**6])
            rw = ReferenceRewriter(exponents, list(kept.items()), cap, [10**6])
            forms = {t: rw.reduce(t) for t in map(tuple, exponent_array(nvars, cap).tolist())}
        except AssemblyError:
            continue
        divisible = [t for t in forms if any(all(map(int.__le__, l, t)) for l in kept)]
        capped += sum(forms[t] == {t: 1.0} for t in divisible)
        long_sums += sum(len(f) >= 3 for f in forms.values())
    assert capped >= 5 and long_sums >= 20


def _bound_problem(seed):
    """Multi-term rules (one raising the degree on odd seeds) and moment
    bindings whose forms have several terms, over one measure."""
    rng = np.random.default_rng(seed)
    c = lambda: float(rng.choice(NON_DYADIC))  # noqa: E731
    ctx = ModelContext()
    x = ctx.vars("x", 3)
    cons = [
        x[0] ** 2 == c() * x[0] + c() * x[1] + c(),
        x[1] * x[2] == c() * x[0] * x[2] + c() * x[1] + c(),
        mass(ctx.measure(1)) == 1,
        mom(x[1]) == c() + c() * mom(x[0] * x[1]) + c() * mom(x[2]),
        mom(x[2] ** 2) == mom(x[0]) + c() * mom(x[1]) + c() * mom(x[1] * x[2] ** 2),
        mom(x[0] * x[2]) == c() * mom(x[2] ** 2) + c() * mom(x[1] ** 2),
    ]
    if seed % 2:
        cons.append(x[1] ** 3 == c() * x[2] ** 4 + c() * x[0])
    return GPMProblem(minimize(mom(x[0] * x[1] + c() * x[2])), cons)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("order", [2, 3])
def test_forms_with_bound_representatives_match_the_reference(seed, order):
    problem = _bound_problem(seed)
    msdp = assemble(problem, order)
    assert msdp.report.n_moment_substitutions >= 3
    ref = ReferenceForms(problem, order)
    assert ref.n_bindings == msdp.report.n_moment_substitutions
    measure = problem.measures[0]
    exps = msdp.index.raw_exponents[measure]
    rows = msdp.index.rows(measure, exps)
    assert np.diff(rows.coeffs.indptr).max() >= 3
    y = np.random.default_rng(seed).normal(size=msdp.n_vars)
    values = mvec_values(msdp, y, measure)
    for k, t in enumerate(map(tuple, exps.tolist())):
        want = ref.form_of_exponents(measure, t)
        const, coeffs = _row_form(rows, k)
        assert const == want.const
        assert list(coeffs.items()) == list(want.coeffs.items())
        assert values[k] == want.value(y)


def test_moments_above_twice_the_order_are_rejected():
    # codes in radix 2r + 1 cannot tell such monomials apart
    ctx = ModelContext()
    x, y = ctx.var("x"), ctx.var("y")
    msdp = assemble(GPMProblem(minimize(mom(x)), [y ** 2 == x * y + 1]), 1)
    values = np.ones(msdp.n_vars)
    assert expression_value(msdp, values, mom(x * y)) == 1.0
    for expr in (mom(x ** 3), mom(x * y ** 2)):
        with pytest.raises(AssemblyError, match="degree above 2"):
            expression_value(msdp, values, expr)


def test_moment_substitution_binds_monomial():
    ctx = ModelContext()
    x = ctx.var("x")
    problem = GPMProblem(minimize(mom(x)), [mom(x ** 2) == 0.5])
    r = assemble(problem, 1).report
    assert r.n_moment_substitutions == 1
    assert r.n_lin_eq == 0
    assert r.n_decision_vars == 2
    assert r.default_mass_labels == []


def test_default_mass_only_for_untouched_single_measure():
    ctx = ModelContext()
    x = ctx.var("x")
    problem = GPMProblem(minimize(mom(x ** 2)))
    r = assemble(problem, 1).report
    assert r.default_mass_labels == [1]
    ctx2 = ModelContext()
    z = ctx2.var("z")
    problem2 = GPMProblem(minimize(mom(z ** 2)), [mom(z) >= 0])
    r2 = assemble(problem2, 1).report
    assert r2.default_mass_labels == []


def test_localizing_blocks_demoted_to_rows_at_low_order():
    # at order 1 every degree-2 localizer has a 1x1 basis: those become
    # linear inequality rows, not semidefinite blocks
    ctx, problem = quadratic3_problem()
    msdp = assemble(problem, 1)
    assert msdp.report.n_lin_ineq == 8
    assert len(msdp.blocks) == 1
    assert msdp.blocks[0].kind == "moment"


def test_format_block_sizes():
    assert format_block_sizes([10]) == "10x10"
    assert format_block_sizes([35, 20, 20, 20]) == "35x35+3x(20x20)"
    assert format_block_sizes([]) == "none"


def test_mvec_and_values_roundtrip():
    rng = np.random.default_rng(11)
    msdp, measure, points, weights, y = planted_instance(rng, 2, 2)
    basis = mvec(msdp, 1)
    assert repr(basis[0]) == "1"
    values = mvec_values(msdp, y, 1)
    assert values[0] == pytest.approx(1.0)
    assert len(values) == len(basis)
    first = sum(w * p[0] for w, p in zip(weights, points))
    assert values[1] == pytest.approx(first)
    M = mmat_values(msdp, y, measure)
    assert np.allclose(M, M.T)
    assert M[0, 0] == pytest.approx(1.0)


def test_mmat_unknown_measure_label():
    rng = np.random.default_rng(12)
    msdp, _, _, _, y = planted_instance(rng, 2, 1)
    with pytest.raises(AssemblyError, match="no measure with label"):
        mmat_values(msdp, y, 9)


def random_square_one_problem(rng, nvars, substituted):
    """Quadratic objective over the sign hypercube x_i^2 = 1."""
    ctx = ModelContext()
    x = ctx.vars("x", nvars)
    Q = rng.normal(size=(nvars, nvars))
    Q = (Q + Q.T) / 2
    c = rng.normal(size=nvars)
    obj = sum(
        Q[i, j] * x[i] * x[j] for i in range(nvars) for j in range(nvars)
    ) + sum(c[i] * x[i] for i in range(nvars))
    if substituted:
        cons = [x[i] ** 2 == 1 for i in range(nvars)]
    else:
        cons = [x[i] ** 2 - 1 == 0 for i in range(nvars)]
    return GPMProblem(minimize(mom(obj)), cons)


def test_substituted_and_plain_equalities_agree():
    # the substituted assembly eliminates moments, the plain one keeps
    # equality rows; both relax the same problem and must give the same
    # bound at every order
    rng = np.random.default_rng(20240917)
    params = SolverParams(eps=1e-9)
    for nvars in (2, 3, 4):
        for order in (1, 2):
            seed = int(rng.integers(1 << 31))
            sub = random_square_one_problem(
                np.random.default_rng(seed), nvars, True
            )
            plain = random_square_one_problem(
                np.random.default_rng(seed), nvars, False
            )
            sol_sub = solve_gpm(sub, order=order, params=params)
            sol_plain = solve_gpm(plain, order=order, params=params)
            assert sol_sub.status >= 0 and sol_plain.status >= 0
            rel = abs(sol_sub.objective - sol_plain.objective) / (
                1.0 + abs(sol_sub.objective)
            )
            assert rel < 1e-5, (nvars, order, sol_sub.objective, sol_plain.objective)
