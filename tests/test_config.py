"""The config validator against jsonschema, its oracle.

``hamelflow.config`` validates configs with its own code for the keywords
``CONFIG_SCHEMA`` uses; jsonschema (a test dependency only) must reach the
same verdict and the same first message on every config.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator

from hamelflow.config import CONFIG_SCHEMA, _first_error

ORACLE = Draft202012Validator(CONFIG_SCHEMA)


def oracle_error(cfg):
    errors = sorted(ORACLE.iter_errors(cfg), key=lambda e: e.json_path)
    return (errors[0].json_path, errors[0].message) if errors else None


NUM = st.floats(-1e3, 1e3) | st.integers(-10, 10)
PAIR = st.lists(NUM, min_size=2, max_size=2)
SAMPLES = st.lists(NUM, min_size=4, max_size=6)


@st.composite
def valid_configs(draw):
    flow = {"phi0": draw(st.floats(0, 5) | st.integers(0, 5))}
    for key in draw(st.lists(st.sampled_from(["mu0", "mu"]), unique=True)):
        flow[key] = draw(NUM)
    if draw(st.booleans()):
        rows = {key: draw(st.lists(PAIR, max_size=3)) for key in draw(
            st.lists(st.sampled_from(["vr", "vtheta"]), unique=True))}
        boundary = {"modes": rows}
    else:
        boundary = {"theta_samples": {"ur": draw(SAMPLES),
                                      "utheta": draw(SAMPLES)}}
    cfg = {"flow": flow, "boundary": boundary}
    solver = draw(st.fixed_dictionaries({}, optional={
        "n_modes": st.integers(1, 64) | st.sampled_from([1.0, 64.0]),
        "r_max": st.floats(1.5, 1e4),
        "nodes_per_decade": st.integers(8, 512),
        "tol_fp": st.floats(1e-14, 1e-6),
        "max_iter": st.integers(1, 100) | st.just(20.0),
        "tol_mu": st.floats(1e-12, 1e-6)}))
    if solver or draw(st.booleans()):
        cfg["solver"] = solver
    if draw(st.booleans()):
        cfg["branch"] = {"mu_values": draw(st.lists(NUM, min_size=1,
                                                    max_size=3))}
    if draw(st.booleans()):
        cfg["output"] = draw(st.fixed_dictionaries({}, optional={
            "theta_points": st.integers(8, 4096),
            "write_field": st.booleans()}))
    return cfg


NAMES = ["flow", "boundary", "solver", "branch", "output", "phi0", "mu0",
         "mu", "modes", "theta_samples", "ur", "utheta", "vr", "vtheta",
         "n_modes", "r_max", "max_iter", "mu_values", "theta_points",
         "write_field", "x", "y"]
# the schema's bounded numbers, and numbers at and just past the bounds
BOUNDED = [("flow", "phi0"), ("solver", "n_modes"), ("solver", "r_max"),
           ("solver", "nodes_per_decade"), ("solver", "tol_fp"),
           ("solver", "max_iter"), ("solver", "tol_mu"),
           ("output", "theta_points")]
BOUNDS = st.sampled_from([-1, -0.5, -0.0, 0, 0.5, 1, 1.0, 7, 7.5, 8, 8.0,
                          64, 64.0, 65, 511, 512, 513, 4096, 4096.0, 4097,
                          4097.0, 1e300])
# drawn as copies: later mutation steps edit the drawn lists and dicts in
# place, which must not change what the next example draws
EDGES = st.sampled_from([True, False, None, "", "1", [], {}, [1],
                         [1.0, 2.0], [1, 2, 3], {"x": 1}]).map(copy.deepcopy)
LEAVES = (BOUNDS | EDGES | st.booleans() | st.integers(-5, 5000)
          | st.floats(allow_nan=False, allow_infinity=False) | st.floats()
          | st.text(max_size=2))
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(st.sampled_from(NAMES), inner,
                                        max_size=3), max_leaves=8)


def nodes(value, path=()):
    """Paths to every dict and list inside ``value``, itself included."""
    if isinstance(value, (dict, list)):
        yield path
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from nodes(child, path + (key,))


def at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(draw(valid_configs()))
    for _ in range(draw(st.integers(1, 3))):
        node = at(cfg, draw(st.sampled_from(list(nodes(cfg)))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        kind = draw(st.sampled_from(["drop", "add", "retype", "bool",
                                     "bound", "row", "boundary"]))
        if kind == "drop" and keys:
            del node[draw(st.sampled_from(keys))]
        elif kind == "add":
            if isinstance(node, dict):
                node[draw(st.sampled_from(NAMES))] = draw(VALUES)
            else:
                node.append(draw(VALUES))
        elif kind in ("retype", "bool") and keys:
            node[draw(st.sampled_from(keys))] = draw(
                VALUES if kind == "retype" else st.booleans())
        elif kind == "bound":
            block, key = draw(st.sampled_from(BOUNDED))
            if isinstance(cfg.setdefault(block, {}), dict):
                cfg[block][key] = draw(BOUNDS)
        elif kind == "row" and isinstance(cfg.get("boundary"), dict):
            row = draw(st.lists(NUM, min_size=1, max_size=3)
                       .filter(lambda row: len(row) != 2))
            cfg["boundary"]["modes"] = {"vr": [[0.0, 0.0], row]}
        elif kind == "boundary":   # no form, or both forms
            cfg["boundary"] = draw(st.sampled_from([{}, {
                "modes": {"vr": [[0.01, 0.0]]},
                "theta_samples": {"ur": [-1.0] * 4, "utheta": [0.0] * 4}}]))
    return cfg


@settings(max_examples=100, deadline=None)
@given(cfg=valid_configs())
def test_valid_configs_pass_both_validators(cfg):
    assert oracle_error(cfg) is None
    assert _first_error(CONFIG_SCHEMA, cfg) is None


@settings(max_examples=500, deadline=None)
@given(cfg=mutated_configs())
def test_validator_matches_jsonschema(cfg):
    assert _first_error(CONFIG_SCHEMA, cfg) == oracle_error(cfg)


@pytest.mark.parametrize("cfg, error", [
    ({}, ("$", "'flow' is a required property")),
    ({"flow": {}}, ("$", "'boundary' is a required property")),
    ({"flow": {"phi0": 1}, "boundary": {}},
     ("$.boundary", "{} should be non-empty")),
    ({"flow": {"phi0": 1}, "boundary": {"modes": {"vr": [[1]]}}},
     ("$.boundary.modes.vr[0]", "[1] is too short")),
    ({"flow": {"phi0": -1}, "boundary": {"modes": {}}},
     ("$.flow.phi0", "-1 is less than the minimum of 0")),
    ({"flow": {"phi0": 1}, "boundary": {"modes": {}}, "y": 0, "x": 0},
     ("$", "Additional properties are not allowed ('x', 'y' were "
           "unexpected)")),
    ({"flow": {"phi0": True}, "boundary": {"modes": {}},
      "solver": {"n_modes": 4.5}},
     ("$.flow.phi0", "True is not of type 'number'")),
    ({"flow": {"phi0": 1}, "boundary": {"modes": {}},
      "solver": {"n_modes": 4.5}},
     ("$.solver.n_modes", "4.5 is not of type 'integer'")),
    ({"flow": {"phi0": 1}, "boundary": {"modes": {}},
      "solver": {"r_max": 1, "tol_fp": 0}},
     ("$.solver.r_max", "1 is less than or equal to the minimum of 1")),
    ({"flow": {"phi0": 1}, "boundary": {"modes": {}},
      "output": {"theta_points": 4097, "write_field": 1}},
     ("$.output.theta_points", "4097 is greater than the maximum of 4096")),
    ({"flow": {"phi0": 1}, "boundary": {"modes": {}},
      "output": {"write_field": 1}},
     ("$.output.write_field", "1 is not of type 'boolean'")),
], ids=["required-first", "required", "non-empty", "too-short", "minimum", "additional",
        "bool", "integer", "exclusive-minimum", "maximum", "boolean"])
def test_messages_are_worded_as_jsonschema_words_them(cfg, error):
    assert _first_error(CONFIG_SCHEMA, cfg) == error == oracle_error(cfg)


@pytest.mark.parametrize("schema", [
    {"type": "object", "propertyNames": {"maxLength": 3}},
    {"type": "array", "items": {"type": "number", "multipleOf": 2}},
    {"type": "object", "additionalProperties": {"type": "number"}},
], ids=["propertyNames", "nested-multipleOf", "additionalProperties-schema"])
def test_unknown_schema_keyword_raises(schema):
    with pytest.raises(ValueError, match="unsupported schema keyword"):
        _first_error(schema, {"a": 1} if schema["type"] == "object" else [1])
