"""Files written by ``jsonutil.dumps`` reload every float64 bit, the sign
of zero included."""

import json

import pytest

from codebounds import jsonutil
from codebounds.codes import FAMILIES, code_from_json_dict, code_to_json_dict, generate
from codebounds.dgs_bound import lp_bound
from codebounds.pfender import certificate_from_json_dict, certificate_to_json_dict

# the certificates of the kissing_lp and lp_stress benchmark workloads
BENCHMARK_CASES = [
    (3, 0.5, 10), (4, 0.5, 10), (8, 0.5, 6), (24, 0.5, 10), (24, 0.5, 20),
    (32, 0.5, 20), (16, 0.7, 16), (24, 0.7, 30), (48, 0.5, 30), (32, 0.5, 30),
]
SIZED = ("simplex", "orthonormal", "cross_polytope")


def _bits(value):
    """``value`` with each float replaced by its hex form, which tells -0.0
    from 0.0 and a float from an int."""
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_bits(item) for item in value]
    if isinstance(value, float):
        return ("float", float.hex(value))
    return value


def _round_trip(data, from_json, to_json):
    return to_json(from_json(json.loads(jsonutil.dumps(data))))


@pytest.mark.parametrize("family", FAMILIES)
def test_every_catalog_code_keeps_its_float_bits(family):
    # cross_polytope's -0.0 entries, once written as -0, reloaded as +0.0
    for dim in range(1, 17) if family in SIZED else [None]:
        data = code_to_json_dict(generate(family, dim))
        back = _round_trip(data, code_from_json_dict, code_to_json_dict)
        assert _bits(back) == _bits(data), (family, dim)


@pytest.mark.parametrize("case", BENCHMARK_CASES, ids=str)
def test_benchmark_certificates_keep_their_float_bits(case):
    data = certificate_to_json_dict(lp_bound(*case))
    back = _round_trip(data, certificate_from_json_dict, certificate_to_json_dict)
    assert _bits(back) == _bits(data)
