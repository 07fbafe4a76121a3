"""Training configuration with named profiles."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


@dataclass
class TrainConfig:
    dim: int = 64
    heads: int = 8
    layers: int = 2
    dropout: float = 0.5
    epochs: int = 150
    max_lr: float = 0.0005
    weight_decay: float = 0.01
    batch_mode: str = field(default="full", metadata={"choices": ("full", "sampled")})
    sample_depth: int = 3
    sample_budget: int = 1800
    batch_size: int = 256
    batches_per_epoch: int = 250
    seed: int = 0
    precision: str = field(default="float32", metadata={"choices": ("float32", "float64")})
    use_seq: bool = True
    use_fusion: bool = True
    use_relation_encoding: bool = True
    attention_norm: str = field(default="joint", metadata={"choices": ("joint", "literal")})
    scale_outside: bool = False
    early_stop_patience: int = 0  # 0 disables early stopping

    def validate(self) -> None:
        """Raise ValueError naming the first setting out of range; NaN is in no range."""
        for text, (allowed, names) in _RANGES.items():
            for name in names.split():
                if not allowed(getattr(self, name)):
                    raise ValueError(f"{name} must be {text}, got {getattr(self, name)!r}")
        if self.dim % self.heads:
            raise ValueError(f"dim {self.dim} must be divisible by heads {self.heads}")
        for f in dataclasses.fields(self):
            choices = f.metadata.get("choices")
            if choices and getattr(self, f.name) not in choices:
                raise ValueError(f"unknown {f.name.replace('_', ' ')} {getattr(self, f.name)!r}")

    def replace(self, **kw) -> "TrainConfig":
        return dataclasses.replace(self, **kw)


_RANGES = {
    "at least 1": (lambda v: v >= 1, "dim heads layers epochs batch_size batches_per_epoch "
                   "sample_depth sample_budget"),
    "positive": (lambda v: v > 0, "max_lr"),
    "non-negative": (lambda v: v >= 0, "weight_decay early_stop_patience"),
    "in [0, 1)": (lambda v: 0 <= v < 1, "dropout"),
}


# "desk" keeps runs laptop-sized; "paper" restores the published scale.
PROFILES: dict[str, dict] = {
    "desk": {},
    "paper": {"dim": 512, "heads": 8, "dropout": 0.5, "max_lr": 0.0005, "epochs": 150},
}


def from_profile(name: str) -> TrainConfig:
    if name not in PROFILES:
        raise KeyError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}")
    return TrainConfig(**PROFILES[name])
