"""Typed errors for inputs that several modules share: counts and field values."""

import importlib
import math

import numpy as np
import pytest

from conefbp import barriers, grid, stability
from conefbp.barriers import admissible_parameter_search, audit_pair
from conefbp.errors import InvalidParameterError
from conefbp.grid import field_from_solution, gradient_sq_field, make_field
from conefbp.minimize import MinimizeConfig, compare_to_symmetric, energy, free_boundary_angle, minimize
from conefbp.stability import steklov_min_quotient
from conefbp.weiss import rescale_field, weiss, weiss_trace


@pytest.fixture(scope="module")
def field16(sol01):
    return field_from_solution(sol01, 16, 16)


@pytest.mark.parametrize(
    "call",
    [
        lambda fld: make_field(4.9, 8, 0.1),
        lambda fld: make_field(8, 8.0, 0.1),
        lambda fld: minimize(MinimizeConfig(c=0.1, nr=8.7, nphi=8), np.ones(8)),
        lambda fld: steklov_min_quotient(0.2, 8.0, num_r=3.5),
        lambda fld: steklov_min_quotient(0.2, 8.0, num_phi=math.nan),
        lambda fld: audit_pair(0.1, 16.0, num=2.5),
        lambda fld: admissible_parameter_search([0.1], num=2001.0),
        lambda fld: weiss_trace(fld, num_radii=4.5),
    ],
    ids=["make_field-nr", "make_field-nphi", "minimize", "steklov-num_r", "steklov-num_phi",
         "audit_pair", "search", "weiss_trace"],
)
def test_non_integer_counts_rejected(field16, call):
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        call(field16)


@pytest.mark.parametrize(
    "module,call",
    [
        (grid, lambda fld: make_field(1_000_000, 1_000_000, 0.1)),
        (grid, lambda fld: make_field(4, 2**20 + 1, 0.1)),
        (importlib.import_module("conefbp.weiss"), lambda fld: weiss_trace(fld, num_radii=2**18 + 1)),
        (stability, lambda fld: steklov_min_quotient(0.2, 8.0, num_phi=2**20 + 1)),
        (barriers, lambda fld: audit_pair(0.1, 16.0, num=2**20 + 1)),
        (barriers, lambda fld: admissible_parameter_search([0.1], num=2_000_000_000)),
    ],
    ids=["make_field", "make_field-thin", "weiss_trace", "steklov", "audit_pair", "search"],
)
def test_counts_bounded_before_allocation(monkeypatch, field16, module, call):
    # without its numpy the module can allocate nothing: only a bound
    # checked first raises the typed error
    monkeypatch.setattr(module, "np", None)
    with pytest.raises(InvalidParameterError, match="more than"):
        call(field16)


def test_numpy_integer_counts_accepted(field16):
    assert make_field(np.int64(8), np.int32(6), 0.1).shape == (8, 6)
    lam = steklov_min_quotient(0.2, 8.0, num_r=np.int64(9), num_phi=np.uint8(7))
    assert lam == steklov_min_quotient(0.2, 8.0, num_r=9, num_phi=7)
    assert len(weiss_trace(field16, num_radii=np.int16(5)).values) == 5


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "audit",
    [
        energy,
        lambda fld: compare_to_symmetric(fld, reference=fld.with_values(np.abs(fld.values))),
        lambda fld: weiss(fld, 0.5),
        lambda fld: weiss_trace(fld),
        free_boundary_angle,
        lambda fld: rescale_field(fld, 0.5),
        gradient_sq_field,
    ],
    ids=[
        "energy",
        "compare_to_symmetric",
        "weiss",
        "weiss_trace",
        "free_boundary_angle",
        "rescale_field",
        "gradient_sq_field",
    ],
)
def test_non_finite_field_rejected(field16, audit, bad):
    values = field16.values.copy()
    values[8, 3] = bad
    with pytest.raises(InvalidParameterError, match="finite"):
        audit(field16.with_values(values))
