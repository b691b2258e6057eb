"""Pipeline configuration: key = value text files; the CLI overrides out_dir only."""

import math
from dataclasses import dataclass, fields


@dataclass
class PipelineConfig:
    conllu: str | None = None
    captions: str | None = None
    instances: str | None = None
    quantifier_lexicon: str | None = None
    superclass_lexicon: str | None = None
    alias_table: str | None = None
    out_dir: str = "out"
    basic_width: int = 200
    positional_width: int = 50
    text_width: int = 256
    learning_rate: float = 0.02
    epochs: int = 200
    seed: int = 7
    max_duplication: int = 10
    many_value: int = 3
    caption_mode: str = "all"

    def __post_init__(self):
        for name in ("basic_width", "positional_width", "text_width",
                     "epochs", "max_duplication", "many_value"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.caption_mode not in ("all", "richest"):
            raise ValueError(
                f"caption_mode must be 'all' or 'richest', got {self.caption_mode!r}"
            )


def _type_name(ftype) -> str:
    return ftype if isinstance(ftype, str) else getattr(ftype, "__name__", str(ftype))


_FIELD_TYPES = {f.name: _type_name(f.type) for f in fields(PipelineConfig)}


def _coerce(name: str, raw: str):
    ftype = _FIELD_TYPES[name]
    try:
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be {ftype}, got {raw!r}") from None
    return raw


def load_config(path) -> PipelineConfig:
    values, line_of = {}, {}
    with open(path, encoding="utf-8-sig") as f:  # a byte-order mark is not part of a key
        for ln, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{ln}: unknown config key {key!r}")
            if not value:  # an empty out_dir or file path would name the working directory
                raise ValueError(f"{path}:{ln}: {key!r} has no value")
            if key in line_of:
                raise ValueError(f"{path}:{ln}: {key!r} is already set at {path}:{line_of[key]}")
            line_of[key] = ln
            try:
                values[key] = _coerce(key, value)
                PipelineConfig(**{key: values[key]})  # each check reads one key
            except ValueError as e:
                raise ValueError(f"{path}:{ln}: {e}") from None
    return PipelineConfig(**values)
