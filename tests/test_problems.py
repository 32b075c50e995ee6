import copy
import dataclasses

import numpy as np
import pytest

from paretodescent import (
    UnknownProblemError,
    check_gradient_characterization,
    check_weak_pareto_local,
    get_problem,
    list_problems,
    sample_quasiconvex,
    solve_sigma_approx,
)
from paretodescent.direction import STATUS_CERTIFIED

ALL_NAMES = ["quad_pair", "paper_cubic", "quasi_exp", "scalar_quad", "nonconvex_demo"]


def test_registry_contains_the_expected_problems():
    names = list_problems()
    for name in ALL_NAMES:
        assert name in names


def test_unknown_name_rejected():
    with pytest.raises(UnknownProblemError):
        get_problem("nope")


def test_unknown_convexity_class_rejected():
    with pytest.raises(ValueError) as exc:
        dataclasses.replace(get_problem("quad_pair"), convexity_class="concave")
    assert str(exc.value) == "unknown convexity class 'concave'"


def test_descriptor_shapes_are_consistent():
    for name in ALL_NAMES:
        desc = get_problem(name)
        p = desc.problem
        assert desc.recommended_x0.size == p.n
        y = p.evaluate(desc.recommended_x0)
        assert y.size == p.m
        assert p.jacobian(desc.recommended_x0).shape == (p.m, p.n)


class TestDescriptorFacts:
    def test_cubic_pair_is_pseudo_convex_with_all_points_critical(self):
        desc = get_problem("paper_cubic")
        assert desc.convexity_class == "pseudo-convex"
        rng = np.random.default_rng(0)
        assert all(desc.critical_set(desc.sample_critical(rng), 1e-9) for _ in range(20))

    def test_scalar_quad_critical_set_is_the_origin(self):
        desc = get_problem("scalar_quad")
        assert desc.critical_set(np.array([0.0]), 1e-9)
        assert not desc.critical_set(np.array([0.1]), 1e-9)

    def test_quad_pair_critical_set_is_the_center_segment(self):
        desc = get_problem("quad_pair")
        assert desc.critical_set(np.array([0.5, 0.0]), 1e-9)
        assert desc.critical_set(np.array([1.0, 0.0]), 1e-9)
        assert not desc.critical_set(np.array([1.2, 0.0]), 1e-3)
        assert not desc.critical_set(np.array([0.5, 0.1]), 1e-3)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_known_critical_set_agrees_with_the_criticality_test(name):
    desc = get_problem(name)
    rng = np.random.default_rng(101)
    for _ in range(50):
        x = desc.sample_critical(rng)
        res = solve_sigma_approx(desc.problem.jacobian(x), 0.0, eps_critical=1e-8)
        assert res.critical, f"{name}: {x} should be critical, status={res.status}"
    misses = 0
    for _ in range(50):
        x = desc.sample_noncritical(rng)
        if x is None:
            return  # the critical set covers the box; nothing to sample
        res = solve_sigma_approx(desc.problem.jacobian(x), 0.0, eps_critical=1e-8)
        misses += int(res.critical)
        assert res.status == STATUS_CERTIFIED, f"{name}: {x} should not be critical, alpha={res.alpha_upper}"
    assert misses == 0


@pytest.mark.parametrize("name", ALL_NAMES)
def test_critical_set_tests_rows_as_it_tests_points(name):
    desc = get_problem(name)
    rng = np.random.default_rng(3)
    X = np.vstack([rng.uniform(*desc.box, size=(200, desc.problem.n)),
                   [desc.sample_critical(rng) for _ in range(20)]])
    rows = desc.critical_set(X, desc.critical_margin)
    assert rows.shape == (len(X),)
    assert rows.tolist() == [bool(desc.critical_set(x, desc.critical_margin)) for x in X]


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_noncritical_sampler_keeps_a_point_outside_the_margin(name, seed):
    desc = get_problem(name)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    not_first = 0
    for _ in range(10):
        first = copy.deepcopy(rng).uniform(*desc.box, size=desc.problem.n)  # the draw's first candidate
        x, y = desc.sample_noncritical(rng), desc.sample_noncritical(twin)
        if name == "paper_cubic":  # every point is critical
            assert x is None and y is None
            continue
        assert x.shape == (desc.problem.n,) and x.tobytes() == y.tobytes()
        assert not desc.critical_set(x, desc.critical_margin)
        not_first += int(x.tobytes() != first.tobytes())
    if name == "nonconvex_demo":  # its critical set covers a third of the box
        assert not_first > 0


@pytest.mark.parametrize(
    "name", [n for n in ALL_NAMES if get_problem(n).convexity_class != "none"]
)
def test_declared_class_passes_the_segment_sampler(name):
    desc = get_problem(name)
    report = sample_quasiconvex(desc.problem, 1000, 2024, desc.box)
    assert report.ok, f"{name}: {report.violations} violations, worst {report.max_violation}"


@pytest.mark.parametrize(
    "name", [n for n in ALL_NAMES if get_problem(n).convexity_class != "none"]
)
def test_declared_class_passes_the_gradient_characterization(name):
    desc = get_problem(name)
    report = check_gradient_characterization(desc.problem, 1000, 2025, desc.box)
    assert report.ok


def test_nonconvex_demo_fails_the_segment_sampler():
    desc = get_problem("nonconvex_demo")
    assert desc.convexity_class == "none"
    report = sample_quasiconvex(desc.problem, 1000, 3, desc.box)
    assert report.violations > 0  # the double well is not quasi-convex


def test_pseudo_convex_critical_points_are_locally_weak_pareto():
    desc = get_problem("paper_cubic")
    rng = np.random.default_rng(5)
    for i in range(20):
        x = desc.sample_critical(rng)
        assert check_weak_pareto_local(desc.problem, x, 0.5, 1000, 500 + i)


@pytest.mark.parametrize("name", ["paper_cubic", "quad_pair"])
def test_pseudo_convexity_implication_on_sampled_pairs(name):
    # contrapositive form: strict domination forces a strictly negative
    # directional derivative in every criterion.  For the cubic pair no
    # sampled pair is ever strictly dominated (every point is weak Pareto
    # optimal), so the check is vacuous there by design; the convex pair
    # triggers the premise and must satisfy it.
    desc = get_problem(name)
    p = desc.problem
    rng = np.random.default_rng(55)
    lo, hi = desc.box
    triggered = 0
    for _ in range(1000):
        x = rng.uniform(lo, hi, size=p.n)
        y = rng.uniform(lo, hi, size=p.n)
        if not np.all(p.evaluate(y) < p.evaluate(x)):
            continue
        triggered += 1
        assert np.all(p.jacobian(x) @ (y - x) < 1e-10)
    if name == "paper_cubic":
        assert triggered == 0
    else:
        assert triggered > 0
