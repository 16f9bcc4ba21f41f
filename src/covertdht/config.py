"""Experiment configuration: one JSON document drives every command.

The schema (all probabilities row-major):

    {
      "sources": {"u_symbols": [...], "v_symbols": [...],
                   "p_uv": [[...]], "q_uv": [[...]]},
      "channel": {"x_symbols": [...], "y_symbols": [...], "z_symbols": [...],
                   "zero_symbol": ..., "y_given_x": [[...]], "z_given_x": [[...]]},
      "scheme":  {"scheme": "A"|"B", "mu": float, "x1": ..., "x_hat": ...,
                   "y_star": ..., "k_rule": "sqrt"|"log"|"pow:a"},
      "sweep":   {"n_grid": [...], "mu_grid": [...], "trials": int, "seed": int},
      "output":  {"path": str, "format": "csv"|"json"}
    }

``simulate`` sweeps every (mu, n) of ``mu_grid`` (``[scheme.mu]`` when
empty) by ``n_grid``, mu-major; both engines return a ``SimulationResult``
per cell, exact where the types can be enumerated (one pass per n serves
every mu) and else Monte Carlo with ``trials`` and ``seed``. Every mu must
be a positive, finite number. ``verify-covertness`` sweeps ``n_grid`` at
``scheme.mu``. ``output`` serves both commands.

Parsing and serialization round-trip exactly; validation failures raise
ConfigError naming the offending field, a key outside the schema among
them. Configs compare by their documents.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .channel import Dmc
from .errors import ConfigError
from .probability import Alphabet, Frozen, JointPmf, cached_method
from .simulation import SchemeConfig, make_k_rule


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing field {where}.{key}")
    return d[key]


def _is_number(value, kinds=(int, float)) -> bool:
    """isinstance(value, kinds), bools excluded: JSON true and false load as bool."""
    return isinstance(value, kinds) and not isinstance(value, bool)


class ExperimentConfig(Frozen):
    """One parsed config document, kept as ``raw``. Two configs are equal
    when their documents are; a config is not hashable, as its dict is not."""

    def __init__(self, raw: dict):
        self._set(raw=raw)

    def __eq__(self, other):
        return self.raw == other.raw if type(other) is ExperimentConfig else NotImplemented

    __hash__ = None

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        cfg = ExperimentConfig(raw=json.loads(json.dumps(data)))
        cfg.validate()
        return cfg

    @staticmethod
    def load(path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return ExperimentConfig.from_dict(data)

    def to_dict(self) -> dict:
        return json.loads(json.dumps(self.raw))

    # -- parsed accessors ---------------------------------------------------
    # the pmfs, channel and scheme are built on first use (by validate, for a
    # loaded config) and kept: the config is not modified after construction

    @cached_method
    def source_pmfs(self) -> tuple[JointPmf, JointPmf]:
        src = _require(self.raw, "sources", "config")
        u = Alphabet(tuple(_require(src, "u_symbols", "sources")))
        v = Alphabet(tuple(_require(src, "v_symbols", "sources")))
        pmfs = []
        for key in ("p_uv", "q_uv"):
            try:
                pmfs.append(JointPmf(u, v, np.array(_require(src, key, "sources"), dtype=float)))
            except ValueError as exc:
                raise ConfigError(f"sources.{key}: {exc}") from exc
        return tuple(pmfs)

    @cached_method
    def dmc(self) -> Dmc:
        ch = _require(self.raw, "channel", "config")
        x, y, z = (Alphabet(tuple(_require(ch, f"{s}_symbols", "channel"))) for s in "xyz")
        zero = _require(ch, "zero_symbol", "channel")
        if zero not in x.symbols:
            raise ConfigError("channel.zero_symbol: not among channel.x_symbols")
        try:
            return Dmc(input_alphabet=x, y_alphabet=y, z_alphabet=z, zero_symbol=zero,
                       y_given_x=np.array(_require(ch, "y_given_x", "channel"), dtype=float),
                       z_given_x=np.array(_require(ch, "z_given_x", "channel"), dtype=float))
        except ValueError as exc:
            raise ConfigError(f"channel: {exc}") from exc

    @cached_method
    def scheme(self) -> SchemeConfig:
        sc = _require(self.raw, "scheme", "config")
        kind = _require(sc, "scheme", "scheme")
        # keys the config leaves out take SchemeConfig's defaults
        fields = {"x1": "x1", "x_hat": "x_hat", "y_star": "y_star", "k_rule": "k_spec"}
        given = {field: sc[key] for key, field in fields.items() if key in sc}
        if "mu" in sc:
            if not _is_number(sc["mu"]):
                raise ConfigError("scheme.mu: must be a positive number")
            given["mu"] = float(sc["mu"])
        try:
            return SchemeConfig(scheme=kind, **given)
        except ValueError as exc:
            raise ConfigError(f"scheme: {exc}") from exc

    def sweep(self) -> dict:
        defaults = {"n_grid": [40, 80, 120, 160, 200], "mu_grid": [], "trials": 0, "seed": 1}
        return {**defaults, **self.raw.get("sweep", {})}

    def output(self) -> dict:
        out = {"path": "-", "format": "csv", **self.raw.get("output", {})}
        if not (isinstance(out["path"], str) and out["path"]):
            raise ConfigError('output.path: must be a file path, or "-" for stdout')
        if out["format"] not in ("csv", "json"):
            raise ConfigError("output.format: must be 'csv' or 'json'")
        return out

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        if not isinstance(self.raw, dict):
            raise ConfigError("config: must be an object")
        # the schema of the module docstring: a misspelt key is an error, not a default
        schema = {"sources": "u_symbols v_symbols p_uv q_uv",
                  "channel": "x_symbols y_symbols z_symbols zero_symbol y_given_x z_given_x",
                  "scheme": "scheme mu x1 x_hat y_star k_rule",
                  "sweep": "n_grid mu_grid trials seed", "output": "path format"}
        unknown = [f"config.{key}" for key in self.raw if key not in schema]
        for key, fields in schema.items():
            section = self.raw.get(key, {})
            if not isinstance(section, dict):
                raise ConfigError(f"{key}: must be an object")
            unknown += [f"{key}.{field}" for field in section if field not in fields.split()]
        if unknown:
            raise ConfigError(f"{', '.join(unknown)}: not a field of the config schema")
        p, q = self.source_pmfs()
        dmc = self.dmc()
        scheme = self.scheme()
        # referenced symbols must exist in the declared alphabets
        if scheme.scheme == "B" and scheme.x1 not in dmc.input_alphabet.symbols:
            raise ConfigError("scheme.x1: not among channel.x_symbols")
        if scheme.scheme == "A":
            if scheme.x_hat not in dmc.input_alphabet.symbols:
                raise ConfigError("scheme.x_hat: not among channel.x_symbols")
            if scheme.y_star not in dmc.y_alphabet.symbols:
                raise ConfigError("scheme.y_star: not among channel.y_symbols")
        try:
            make_k_rule(scheme.k_spec)
        except ValueError as exc:
            raise ConfigError(f"scheme.k_rule: {exc}") from exc
        sw = self.sweep()
        if not (isinstance(sw["n_grid"], list)
                and all(_is_number(n, int) and n >= 1 for n in sw["n_grid"])):
            raise ConfigError("sweep.n_grid: blocklengths must be positive integers")
        if not sw["n_grid"]:  # a sweep of no cell would write a bare header
            raise ConfigError("sweep.n_grid: must list at least one blocklength")
        # JSON Infinity loads as a float, and NaN compares false with both ends
        if not (isinstance(sw["mu_grid"], list)
                and all(_is_number(mu) and 0 < mu < math.inf for mu in sw["mu_grid"])):
            raise ConfigError("sweep.mu_grid: entries must be positive finite numbers")
        for key in ("trials", "seed"):
            if not (_is_number(sw[key], int) and sw[key] >= 0):
                raise ConfigError(f"sweep.{key}: must be a non-negative integer")
        if np.any((p.probs > 0) & (q.probs == 0)):
            raise ConfigError("sources: p_uv must vanish wherever q_uv vanishes")
        self.output()
