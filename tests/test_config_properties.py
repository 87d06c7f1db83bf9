"""Property tests of config reading: a valid document with any of its keys
set to any JSON value is read, or refused with a ConfigError; what is read
dumps to a resolved document that reads back to the same config."""

import copy
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from vortex.config import CHECK_PARAMS, SECTIONS, TOP, ConfigError, parse_config

VALID = {
    "grid": {"modes_per_dim": 16, "domain_length": 6.0, "dealias_fraction": 0.5},
    "solver": {"dt": 0.005, "t_end": 0.05, "blowup_threshold": 1e6},
    "noise": {"mode_band": 2, "modes": [[1, 0], [0, 2], [-1, 1]], "coefficient_base": 0.5,
              "coefficient_decay": 1.1, "sigma_kind": "rational_square",
              "pivot_mode": [1, 1], "pivot_norm": 2.0, "roughness": 0.5, "hy_level": 10},
    "initial": {"kind": "random_vorticity", "amplitude": 1.0, "spectral_decay": 2.0},
    "mc": {"n_paths": 4, "base_seed": 3},
    "checks": [{"name": name} for name in CHECK_PARAMS],
    "output": {"directory": "out", "snapshot_stride": 2},
    "lq_exponent": 4.0,
}

# every key of every table, as the path to it in VALID
SITES = ([(key,) for key in TOP]
         + [(name, key) for name, (_, table) in SECTIONS.items() for key in table]
         + [("checks", i, key) for i, name in enumerate(CHECK_PARAMS)
            for key in ("name", *CHECK_PARAMS[name])])

# an explicit alphabet spares hypothesis building its unicode tables
words = st.text(alphabet="az_.", max_size=4)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([0, 1, -1, 2, 8, 10, 2**63 - 1, 2**63, 10**30]),
    st.floats(allow_nan=False),
    words,
    st.sampled_from(["zero", "single_mode", "constant_one", "rational_square", "energy"]),
)
# numbers most often, since most keys take one, and the extremes among them
edges = st.sampled_from([0, -1, 2**63, -2**63, 10**400, 1e308, -1e308, 1e-308, 5e-324,
                         1000.0, -1000.0, math.inf, -math.inf])
json_values = st.one_of(edges, st.floats(allow_nan=False), st.integers(), st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(words, inner, max_size=3),
    max_leaves=8,
))


# a grid at most 32 modes wide, so no example allocates much
grid_sizes = json_values.filter(
    lambda v: not (isinstance(v, int) and not isinstance(v, bool) and v > 32))


@st.composite
def mutated_documents(draw):
    """VALID with one of its keys set to random JSON.  One key at a time: a
    second would most often be refused first and hide what the first does."""
    doc = copy.deepcopy(VALID)
    *where, key = draw(st.sampled_from(SITES))
    target = doc
    for step in where:
        target = target[step]
    target[key] = draw(grid_sizes if (*where, key) == ("grid", "modes_per_dim") else json_values)
    return doc


PROPERTY = settings(max_examples=500, deadline=None)


class TestMutatedDocuments:
    def test_valid_document_is_read(self):
        cfg = parse_config(copy.deepcopy(VALID))
        cfg.build_noise_spec()
        cfg.build_initial()

    @PROPERTY
    @given(mutated_documents())
    def test_read_or_refused_and_round_trips(self, doc):
        try:
            cfg = parse_config(doc)
            cfg.build_noise_spec()
            cfg.build_initial()
        except ConfigError:
            return
        resolved = json.loads(json.dumps(cfg.resolved()))
        assert parse_config(resolved) == cfg
