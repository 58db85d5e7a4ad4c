from collections import Counter
from fractions import Fraction

import pytest

from tracecensus.sl2fp import (
    class_list,
    class_mass,
    classify,
    group_order,
    predicted_density,
    trace_mass,
)

from oracles import closed_form_density, sl2_conjugacy_orbits

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_class_equation_up_to_97():
    for p in SMALL_PRIMES:
        classes = class_list(p)
        assert sum(c.size for c in classes) == group_order(p), p
        if p == 2:
            assert len(classes) == 3
        else:
            assert len(classes) == p + 4, p
        for c in classes:
            assert c.size * c.centralizer == group_order(p), (p, c.label)


def test_pinned_p7_profile():
    sizes = Counter(c.size for c in class_list(7))
    assert sizes == Counter({56: 2, 42: 3, 1: 2, 24: 4})


def test_reps_have_right_det_trace_and_label():
    for p in SMALL_PRIMES:
        for c in class_list(p):
            a, b, cc, d = c.rep
            assert (a * d - b * cc) % p == 1, (p, c.label)
            assert (a + d) % p == c.trace, (p, c.label)
            assert classify(c.rep, p) == c.label, (p, c.label)


def test_labels_unique():
    for p in SMALL_PRIMES:
        labels = [c.label for c in class_list(p)]
        assert len(labels) == len(set(labels)), p


def test_against_orbit_oracle():
    for p in (2, 3, 5, 7):
        orbits = sl2_conjugacy_orbits(p)
        classes = class_list(p)
        assert len(orbits) == len(classes), p
        by_label = {c.label: c for c in classes}
        seen = set()
        for orbit in orbits:
            labels = {classify(m, p) for m in orbit}
            assert len(labels) == 1, (p, labels)
            label = labels.pop()
            assert label not in seen
            seen.add(label)
            assert by_label[label].size == len(orbit), (p, label)


def test_trace_mass_pinned():
    assert trace_mass(5, 0) == Fraction(1, 2)
    assert trace_mass(5, 2) == Fraction(5, 12)
    assert trace_mass(2, 0) == Fraction(4, 3)
    assert trace_mass(2, 1) == Fraction(2, 3)


def test_predicted_density_closed_form():
    for p in (2, 3, 5, 7, 11, 13, 41, 97):
        for a in range(p):
            assert predicted_density(p, a) == closed_form_density(p, a), (p, a)


def test_densities_sum_to_one():
    for p in SMALL_PRIMES:
        assert sum(predicted_density(p, a) for a in range(p)) == 1, p


def test_class_mass_sums_to_one():
    for p in SMALL_PRIMES[:10]:
        assert sum(class_mass(p).values()) == 1, p


def test_classify_validates_det():
    with pytest.raises(ValueError):
        classify((1, 1, 0, 2), 5)
    with pytest.raises(ValueError):
        class_list(6)


def test_classify_unipotent_alpha_cases():
    # lower-triangular: alpha = -n21; mod 7, -3 = 4 is square, -5 = 2 is square
    assert classify((1, 0, 3, 1), 7) == ("unipotent", 1, 1)
    assert classify((1, 3, 0, 1), 7) == ("unipotent", 1, -1)
    assert classify((6, 0, 2, 6), 7) == ("unipotent", -1, 1)
    assert classify((6, 3, 0, 6), 7) == ("unipotent", -1, classify((1, 4, 0, 1), 7)[2])
