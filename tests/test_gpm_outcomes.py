"""Generalized moment problems with several measures, against closed forms.

``models/cantelli_box.gpm`` maximizes P(X >= 2) over the laws of X on
[0, 3] with mean 1 and second moment 2, split into mu on [2, 3] and nu
on [0, 3].  Cantelli's inequality gives 1/2, attained by weight 1/2 at 2
(mu) and at 0 (nu).  Both measures' variables are bounded on both
sides, so solve_gpm moves them onto [-1, 1], and the moment constraints
that couple the measures are rewritten too.
"""

import numpy as np
import pytest

from gpmkit import solve_gpm
from gpmkit.dsl import parse_model

from conftest import model_path


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
def test_cantelli_on_a_box_certifies_one_half(order):
    with open(model_path("cantelli_box.gpm")) as fh:
        problem = parse_model(fh.read(), "cantelli_box.gpm")
    sol = solve_gpm(problem, order=order)
    assert sol.conic.status == "solved", sol.conic.message
    assert sol.status == 1
    assert sol.objective == pytest.approx(0.5, rel=1e-8)
    mu, nu = problem.measures
    assert sol.normalized == {mu.label: {"x": [2.5, 0.5]}, nu.label: {"y": [1.5, 1.5]}}
    for measure, atom in ((mu, 2.0), (nu, 0.0)):
        points, weights = sol.support(measure.label)
        assert np.abs(points - atom).max() < 1e-6, points
        assert np.array_equal(measure.support_points, points)
        assert weights.sum() == pytest.approx(0.5, abs=1e-6)
