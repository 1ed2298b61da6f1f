"""Run configuration: dataclasses, the key=value config file, fingerprints.

One INI-style file mirrors the config types section by section. Every run
resolves its configuration (data-derived node count, CLI seed overrides)
into a canonical text form (values by ``braincl.tables.format_value``) that
is written next to the run artifacts; its SHA-256 is the config fingerprint
recorded in reports. Parsing and the resolved text walk the dataclass
fields: a setting is written down once, as one field, and its default
once, there. The code that uses a setting reads it from that field (the
queue capacity, momentum and temperature from ``PretrainConfig``; the
split's shuffle from ``FinetuneConfig.seed``), and ``EncoderConfig``
writes out its derived widths when it is built, so ``asdict`` of it is
already resolved. ``[experiment] rng`` is recorded in the text; a file may
carry it with that one value.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import reduce
from typing import get_args, get_type_hints

from ..augment import AugmentConfig, NoiseSpec
from ..data import SplitSpec
from ..model import EncoderConfig
from ..tables import format_value

__all__ = ["PretrainConfig", "FinetuneConfig", "ExperimentConfig",
           "load_config", "resolved_text", "fingerprint", "RNG"]

RNG = "numpy PCG64"


@dataclass(frozen=True)
class PretrainConfig:
    epochs: int = 900
    lr: float = 1e-5
    batch_size: int = 64
    queue_capacity: int = 512
    momentum: float = 0.999
    temperature: float = 0.07
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size positive")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be positive, got {self.queue_capacity}")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError(f"momentum must lie in [0, 1], got {self.momentum}")
        if not 0.0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")


@dataclass(frozen=True)
class FinetuneConfig:
    epochs: int = 200
    lr: float = 5e-5
    weight_decay: float = 5e-5
    batch_size: int = 64
    repeats: int = 5
    split: SplitSpec = field(default_factory=SplitSpec)
    freeze_encoder: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.repeats < 1:
            raise ValueError("epochs, batch_size and repeats must be positive")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be non-negative and finite, "
                             f"got {self.weight_decay}")


@dataclass(frozen=True)
class ExperimentConfig:
    encoder: EncoderConfig
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    pretrain_scope: str = "all"  # "all" (transductive, as published) | "train_only"

    def __post_init__(self):
        if self.pretrain_scope not in ("all", "train_only"):
            raise ValueError("pretrain_scope must be 'all' or 'train_only'")

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self,
                       pretrain=replace(self.pretrain, seed=seed),
                       finetune=replace(self.finetune, seed=seed))


# ---------------------------------------------------------------------------
# the file layout, derived from the dataclass fields


def _layout(cls=ExperimentConfig, path=(), section="experiment"):
    """(section, key, attribute path, type) of every setting, in field order.

    A nested config opens a section named after its field (``encoder`` is
    ``[model]``); a NoiseSpec is one setting. The split expands in place to
    ``<part>_fraction`` keys.
    """
    hints = get_type_hints(cls)
    for f in fields(cls):
        kind = next((k for k in get_args(hints[f.name]) if k is not type(None)),
                    hints[f.name])  # int | None -> int
        here = path + (f.name,)
        if kind is SplitSpec:
            yield from ((section, f"{key}_fraction", p, k)
                        for _, key, p, k in _layout(kind, here))
        elif is_dataclass(kind) and kind is not NoiseSpec:
            yield from _layout(kind, here, "model" if f.name == "encoder" else f.name)
        else:
            yield section, f.name, here, kind


_SETTINGS = tuple(_layout())


def _parse(parser: configparser.ConfigParser, section: str, key: str, kind: type):
    try:
        if kind is bool:
            return parser.getboolean(section, key)  # configparser's BOOLEAN_STATES only
        raw = parser.get(section, key)
        return NoiseSpec.parse(raw) if kind is NoiseSpec else kind(raw)
    except ValueError as exc:
        raise ValueError(f"[{section}] {key}: {exc}") from None


def _data_defaults(n_nodes: int, d_model: int | None) -> dict[str, dict[str, int]]:
    """The node count, and head count, cluster count and augmented-node
    range scaled down for small graphs; explicit values validate strictly."""
    width = d_model if d_model is not None else n_nodes
    heads = EncoderConfig.heads
    while width % heads:
        heads //= 2
    k_max = min(AugmentConfig.k_max, n_nodes)
    return {
        "encoder": {"n_nodes": n_nodes, "heads": heads,
                    "n_clusters": min(EncoderConfig.n_clusters, width)},
        "augment": {"k_min": min(AugmentConfig.k_min, k_max), "k_max": k_max},
    }


def _build(cls, values: dict):
    """Instantiate ``cls`` from a nested dict of field values."""
    hints = get_type_hints(cls)
    return cls(**{name: _build(hints[name], value) if isinstance(value, dict) else value
                  for name, value in values.items()})


def load_config(path=None, *, n_nodes: int, text: str | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from an optional INI file.

    ``n_nodes`` comes from the dataset; a file may pin it for validation.
    Missing sections and keys fall back to the dataclass defaults; unknown
    ones, [DEFAULT] among them, and values that do not parse are errors.
    """
    try:
        return _load(path, text, n_nodes)
    except configparser.Error as exc:  # malformed INI: no section header, bad % syntax
        source = "config text" if text is not None else f"config file {path}"
        raise ValueError(f"{source}: {' '.join(exc.message.split())}") from None


def _load(path, text: str | None, n_nodes: int) -> ExperimentConfig:
    parser = configparser.ConfigParser(default_section="")  # no section applies to all
    if text is not None:
        parser.read_string(text)
    elif path is not None:
        with open(path) as fh:
            parser.read_file(fh)

    known = {(section, key): (attrs, kind) for section, key, attrs, kind in _SETTINGS}
    # rng is recorded in every resolved text, so a config file may carry it,
    # with the one value a run can honour
    accepted = set(known) | {("experiment", "rng")}
    sections = {section for section, _ in accepted}
    unknown = [f"section [{section}]" for section in parser.sections()
               if section not in sections]
    unknown += [f"key [{section}] {key}" for section in parser.sections()
                if section in sections for key in parser.options(section)
                if (section, key) not in accepted]
    if unknown:
        raise ValueError("unknown config " + ", ".join(unknown))
    rng = parser.get("experiment", "rng", fallback=RNG)
    if rng != RNG:
        raise ValueError(f"[experiment] rng: runs draw from {RNG!r} only, got {rng!r}")

    values: dict = {}
    for (section, key), (attrs, kind) in known.items():
        if parser.has_option(section, key):
            node = values
            for name in attrs[:-1]:
                node = node.setdefault(name, {})
            node[attrs[-1]] = _parse(parser, section, key, kind)

    encoder = values.get("encoder", {})
    for name, defaults in _data_defaults(n_nodes, encoder.get("d_model")).items():
        values[name] = {**defaults, **values.get(name, {})}
    if values["encoder"]["n_nodes"] != n_nodes:
        raise ValueError(f"config pins n_nodes={values['encoder']['n_nodes']} "
                         f"but data has {n_nodes}")
    return _build(ExperimentConfig, values)


def resolved_text(cfg: ExperimentConfig) -> str:
    """Canonical INI dump of every resolved value."""
    sections: dict[str, dict[str, str]] = {}
    for section, key, attrs, _ in _SETTINGS:
        sections.setdefault(section, {})[key] = format_value(reduce(getattr, attrs, cfg))
    sections["experiment"]["rng"] = RNG
    parser = configparser.ConfigParser()
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def fingerprint(cfg: ExperimentConfig) -> str:
    # imported here: hashlib maps OpenSSL's libcrypto, which no other CLI path needs
    import hashlib

    return hashlib.sha256(resolved_text(cfg).encode("utf-8")).hexdigest()
