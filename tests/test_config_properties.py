"""Property tests of config reading: a valid document with any of its keys
set to any JSON value is read, or refused with a ConfigError; what is read
dumps to a resolved document that reads back to the same config, and
builds initial data and noise that the integrator's loop accepts.  A mode
past the dealias band is refused, naming its field."""

import copy
import json
import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from vortex.config import CHECK_PARAMS, SECTIONS, TOP, ConfigError, parse_config
from vortex.integrator import trajectories
from vortex.spectral import SpectralGrid

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


def built(doc):
    """The config of doc and the noise spec and initial data it builds."""
    cfg = parse_config(doc)
    return cfg, cfg.build_noise_spec(), cfg.build_initial()


class TestTheDealiasBand:
    """The config's band rule and the loop's guard agree: what the config
    accepts, the loop starts; a mode past the dealias band, in any of the
    four fields that name one, is refused by the config."""

    @PROPERTY
    @given(mutated_documents())
    def test_an_accepted_document_starts_a_trajectory(self, doc):
        try:
            cfg, spec, (v0, xi0) = built(doc)
        except ConfigError:
            return
        first = next(trajectories([(v0, xi0, 0)], spec, cfg.solver, cfg.mc.base_seed))
        assert first.step == 0 and first.alive.all()

    @st.composite
    @staticmethod
    def outside(draw):
        """VALID on a small grid with one mode past its dealias limit L:
        (document, field)."""
        n = draw(st.integers(4, 16).map(lambda m: 2 * m))
        field = draw(st.sampled_from(["noise.modes", "noise.mode_band", "noise.pivot_mode",
                                      "initial.kind"]))
        # single_mode's (1, 0) lies past L only when L = 0, which needs
        # dealias_fraction * N/2 < 1
        top = 1.99 / n if field == "initial.kind" else 2.0 / 3.0
        fraction = draw(st.floats(1e-6, top))
        limit = SpectralGrid(n, 6.0, fraction).dealias_limit
        past = st.integers(-3 * n, 3 * n)
        mode = draw(st.tuples(past, past).filter(lambda j: max(map(abs, j)) > limit))
        doc = copy.deepcopy(VALID)
        doc["grid"] = {"modes_per_dim": n, "domain_length": 6.0, "dealias_fraction": fraction}
        doc["noise"].update(modes=[[0, 0]], sigma_kind="constant_one")
        if field == "noise.modes":
            doc["noise"]["modes"] = [[0, 0], list(mode)]
        elif field == "noise.mode_band":
            doc["noise"]["modes"] = None
            doc["noise"]["mode_band"] = draw(st.integers(limit + 1, 3 * n))
        elif field == "noise.pivot_mode":
            doc["noise"].update(sigma_kind="rational_square", pivot_mode=list(mode))
        else:
            doc["initial"]["kind"] = "single_mode"
        return doc, field

    @PROPERTY
    @given(outside())
    def test_a_mode_past_the_band_is_refused(self, case):
        doc, field = case
        with pytest.raises(ConfigError, match=f"^'{field}' mode .* lies outside the dealias"):
            built(doc)
