import copy

import pytest

from covertdht.cli import EXAMPLE_CONFIG
from covertdht.config import ExperimentConfig
from covertdht.errors import ConfigError
from covertdht.simulation import SchemeConfig


def variant(**paths):
    data = copy.deepcopy(EXAMPLE_CONFIG)
    for dotted, value in paths.items():
        keys = dotted.split("__")
        node = data
        for k in keys[:-1]:
            node = node[k]
        if value is ...:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
    return data


def test_round_trip():
    cfg = ExperimentConfig.from_dict(EXAMPLE_CONFIG)
    assert cfg.to_dict() == EXAMPLE_CONFIG


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ExperimentConfig.load(str(path))


def test_missing_field_is_named():
    with pytest.raises(ConfigError, match="sources.p_uv"):
        ExperimentConfig.from_dict(variant(sources__p_uv=...))


def test_bad_pmf_mass_is_named():
    with pytest.raises(ConfigError, match="sources.q_uv"):
        ExperimentConfig.from_dict(variant(sources__q_uv=[[0.3], [0.8]]))


def test_zero_symbol_membership():
    with pytest.raises(ConfigError, match="zero_symbol"):
        ExperimentConfig.from_dict(variant(channel__zero_symbol="9"))


def test_codeword_membership():
    with pytest.raises(ConfigError, match="scheme.x1"):
        ExperimentConfig.from_dict(variant(scheme__x1="9"))


def test_scheme_a_needs_marker_symbols():
    data = variant(scheme__scheme="A")
    del data["scheme"]["x1"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(data)


def test_bad_k_rule():
    with pytest.raises(ConfigError, match="k_rule"):
        ExperimentConfig.from_dict(variant(scheme__k_rule="pow:2"))


def test_bad_n_grid():
    with pytest.raises(ConfigError, match="n_grid"):
        ExperimentConfig.from_dict(variant(sweep__n_grid=[40, 0]))
    with pytest.raises(ConfigError, match="n_grid"):
        ExperimentConfig.from_dict(variant(sweep__n_grid=[40.5]))
    with pytest.raises(ConfigError, match="n_grid"):
        ExperimentConfig.from_dict(variant(sweep__n_grid=[40, True]))
    with pytest.raises(ConfigError, match="sweep.n_grid"):
        ExperimentConfig.from_dict(variant(sweep__n_grid=[]))


@pytest.mark.parametrize("grid", [[0.08, -0.1], [0.0], ["0.1"], [True], 0.1,
                                  [float("inf"), 0.1], [float("nan")]])
def test_bad_mu_grid(grid):
    with pytest.raises(ConfigError, match="sweep.mu_grid"):
        ExperimentConfig.from_dict(variant(sweep__mu_grid=grid))


@pytest.mark.parametrize("trials", ["many", -1, 2.5, True])
def test_bad_trials(trials):
    with pytest.raises(ConfigError, match="sweep.trials"):
        ExperimentConfig.from_dict(variant(sweep__trials=trials))


@pytest.mark.parametrize("seed", [-3, "7", 1.0, False])
def test_bad_seed(seed):
    with pytest.raises(ConfigError, match="sweep.seed"):
        ExperimentConfig.from_dict(variant(sweep__seed=seed))


def test_nan_mu_is_rejected():
    # NaN is a float (JSON NaN loads as one), and NaN compares false with 0
    with pytest.raises(ConfigError, match="scheme: mu must be positive"):
        ExperimentConfig.from_dict(variant(scheme__mu=float("nan")))


def test_infinite_mu_is_rejected():
    # JSON Infinity loads as a float and compares greater than 0
    with pytest.raises(ConfigError, match="scheme: mu must be positive and finite"):
        ExperimentConfig.from_dict(variant(scheme__mu=float("inf")))
    with pytest.raises(ValueError, match="finite"):
        SchemeConfig(scheme="B", mu=float("inf"), x1="1")


@pytest.mark.parametrize("mu", [True, "0.1"])
def test_bad_scheme_mu(mu):
    # the number rule of sweep.mu_grid: JSON true would run as 1.0, a string
    # as the number it spells
    with pytest.raises(ConfigError, match="scheme.mu"):
        ExperimentConfig.from_dict(variant(scheme__mu=mu))


def test_sweep_numbers_in_range_pass():
    sweep = ExperimentConfig.from_dict(
        variant(sweep__mu_grid=[1, 0.05], sweep__trials=0, sweep__seed=0)).sweep()
    assert (sweep["mu_grid"], sweep["trials"], sweep["seed"]) == ([1, 0.05], 0, 0)


def test_absolute_continuity_required():
    with pytest.raises(ConfigError, match="vanish"):
        ExperimentConfig.from_dict(
            variant(sources__p_uv=[[0.8], [0.2]], sources__q_uv=[[1.0], [0.0]])
        )


def test_bad_output_format():
    with pytest.raises(ConfigError, match="output.format"):
        ExperimentConfig.from_dict(variant(output__format="xml"))


@pytest.mark.parametrize("change, field", [
    ({"output__path": ""}, "output.path"),
    ({"output__path": 5}, "output.path"),
    ({"output__path": None}, "output.path"),
    ({"sweep": [1]}, "sweep"),
    ({"output": "out.csv"}, "output"),
])
def test_bad_section_or_output_path_is_named(change, field):
    # unchecked, each would reach the sweep, or the write after it, and
    # raise a TypeError or FileNotFoundError there
    with pytest.raises(ConfigError, match=rf"^{field}: must be"):
        ExperimentConfig.from_dict(variant(**change))


@pytest.mark.parametrize("change, fields", [
    ({"sweep__trails": 0}, "sweep.trails"),
    ({"scheme__k_spec": "log"}, "scheme.k_spec"),
    ({"sources__p_vu": [[1.0]]}, "sources.p_vu"),
    ({"channel__zero": "0"}, "channel.zero"),
    ({"output__fmt": "json"}, "output.fmt"),
    ({"sweeps": {"n_grid": [24]}, "sweep__seeds": 2}, "config.sweeps, sweep.seeds"),
])
def test_key_outside_the_schema_is_named(change, fields):
    # a misspelt key would leave its field at the default without a word
    with pytest.raises(ConfigError, match=rf"^{fields}: not a field of the config schema$"):
        ExperimentConfig.from_dict(variant(**change))


@pytest.mark.parametrize("doc", [[1], 5, "config", None])
def test_document_that_is_not_an_object_is_named(doc):
    with pytest.raises(ConfigError, match="^config: must be an object"):
        ExperimentConfig.from_dict(doc)


def test_sweep_defaults():
    data = variant()
    del data["sweep"]
    cfg = ExperimentConfig.from_dict(data)
    sw = cfg.sweep()
    assert sw["n_grid"] == [40, 80, 120, 160, 200]
    assert sw["trials"] == 0
    assert sw["seed"] == 1


def test_parsed_objects(example_dmc):
    cfg = ExperimentConfig.from_dict(EXAMPLE_CONFIG)
    p_uv, q_uv = cfg.source_pmfs()
    assert p_uv.row_marginal().probs == pytest.approx([0.8, 0.2])
    dmc = cfg.dmc()
    assert dmc.zero_symbol == "0"
    assert dmc.y_row("1").probs == pytest.approx(example_dmc.y_row("1").probs)
    scheme = cfg.scheme()
    assert scheme.scheme == "B" and scheme.x1 == "1" and scheme.mu == 0.02


def test_scheme_defaults():
    # keys the config leaves out take SchemeConfig's own defaults; mu is
    # parsed as a float
    scheme = ExperimentConfig.from_dict(variant(scheme__mu=..., scheme__k_rule=...)).scheme()
    assert scheme == SchemeConfig(scheme="B", x1="1")
    scheme = ExperimentConfig.from_dict(variant(scheme__mu=1)).scheme()
    assert scheme.mu == 1.0 and isinstance(scheme.mu, float)
