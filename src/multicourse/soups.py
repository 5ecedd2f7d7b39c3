"""Course soups: sweep the correction-loss subsets, then average checkpoints.

A sweep trains one model per proper non-empty subset of the four
correction losses (14 in all, self-supervision always on). Merging is a
weighted arithmetic mean per parameter with a fixed left-fold order in
float64, so uniform and equal-weighted soups coincide bit-for-bit after
the float32 cast.
"""

import itertools
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint
from .errors import ConfigError, InputError, MergeError
from .fileio import atomic_open, read_json

log = logging.getLogger(__name__)

CORRECTION_LOSSES = ("re_mlm", "re_rtd", "re_slm", "re_std")


def enumerate_subsets():
    """The 14 proper non-empty subsets of the correction losses, ordered by
    size then lexicographically."""
    out = []
    for size in range(1, len(CORRECTION_LOSSES)):
        out.extend(itertools.combinations(CORRECTION_LOSSES, size))
    return out


@dataclass(eq=False)
class SweepRun:
    name: str
    losses: tuple
    seed: int
    checkpoint: str
    score: float = None

    def to_dict(self):
        d = {"name": self.name, "losses": list(self.losses), "seed": self.seed,
             "checkpoint": self.checkpoint}
        if self.score is not None:
            d["score"] = self.score
        return d


@dataclass(eq=False)
class SweepManifest:
    config_path: str
    output_dir: str
    runs: list = field(default_factory=list)
    probe_data: str = None

    def validate(self):
        seen = set()
        for run in self.runs:
            unknown = set(run.losses) - set(CORRECTION_LOSSES)
            if unknown:
                raise ConfigError(f"run {run.name}: unknown correction losses {sorted(unknown)}")
            key = tuple(sorted(run.losses))
            if key in seen:
                raise ConfigError(f"duplicate correction subset {key}")
            seen.add(key)

    def to_dict(self):
        d = {"config": self.config_path, "output_dir": self.output_dir,
             "runs": [r.to_dict() for r in self.runs]}
        if self.probe_data is not None:
            d["probe_data"] = self.probe_data
        return d


def default_manifest(config_path, output_dir, base_seed=0, probe_data=None) -> SweepManifest:
    """One run per correction subset, named after its enabled losses."""
    output_dir = str(output_dir)
    runs = []
    for subset in enumerate_subsets():
        name = "+".join(subset)
        runs.append(SweepRun(name=name, losses=subset, seed=base_seed,
                             checkpoint=str(Path(output_dir) / name / "checkpoint_final.bin")))
    return SweepManifest(config_path=str(config_path), output_dir=output_dir,
                         runs=runs, probe_data=probe_data)


def load_manifest(path) -> SweepManifest:
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: a manifest must be a JSON object")
    unknown = set(raw) - {"config", "output_dir", "runs", "probe_data"}
    if unknown:
        raise ConfigError(f"{path}: unknown manifest keys: {sorted(unknown)}")
    if "config" not in raw:
        raise ConfigError(f"{path}: missing manifest key 'config'")
    entries = raw.get("runs", [])
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise ConfigError(f"{path}: 'runs' must be a list of JSON objects")
    runs = []
    for entry in entries:
        extra = set(entry) - {"name", "losses", "seed", "checkpoint", "score"}
        if extra:
            raise ConfigError(f"{path}: unknown run keys: {sorted(extra)}")
        missing = {"name", "losses", "checkpoint"} - set(entry)
        if missing:
            raise ConfigError(f"{path}: run {len(runs)} misses keys {sorted(missing)}")
        runs.append(SweepRun(name=entry["name"], losses=tuple(entry["losses"]),
                             seed=int(entry.get("seed", 0)), checkpoint=entry["checkpoint"],
                             score=entry.get("score")))
    manifest = SweepManifest(config_path=raw["config"], output_dir=raw.get("output_dir", "."),
                             runs=runs, probe_data=raw.get("probe_data"))
    manifest.validate()
    return manifest


def save_manifest(manifest: SweepManifest, path):
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, indent=2)
        fh.write("\n")


@dataclass(eq=False)
class SoupWeights:
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not (np.isfinite(self.values) & (self.values >= 0)).all():
            raise ConfigError(f"soup weights must be finite and nonnegative, got {self.values}")
        if abs(float(self.values.sum()) - 1.0) > 1e-9:
            raise ConfigError(f"soup weights must sum to 1, got {float(self.values.sum())}")

    @classmethod
    def uniform(cls, k):
        return cls(np.full(k, 1.0 / k))


def score_runs(manifest: SweepManifest, scores=None) -> SoupWeights:
    """Weights proportional to per-run scores; uniform fallback when absent."""
    k = len(manifest.runs)
    if scores is None:
        scores = [run.score for run in manifest.runs]
    if any(s is None for s in scores):
        log.warning("missing scores; falling back to uniform soup weights")
        return SoupWeights.uniform(k)
    scores = np.asarray(scores, dtype=np.float64)
    if not (np.isfinite(scores) & (scores >= 0)).all():
        raise InputError(f"scores must be finite and nonnegative, got {scores}")
    total = float(scores.sum())
    if total == 0.0:
        log.warning("all scores are zero; falling back to uniform soup weights")
        return SoupWeights.uniform(k)
    return SoupWeights(scores / total)


def merge_checkpoints(checkpoints, weights: SoupWeights) -> Checkpoint:
    """Weighted mean of every parameter; optimizer state never exists here.

    Accumulation is a float64 left fold in manifest order over parameters
    in canonical checkpoint order, cast to float32 at the end; merging K
    identical checkpoints therefore reproduces them bit-exactly.
    """
    if not checkpoints:
        raise MergeError("nothing to merge")
    if len(weights.values) != len(checkpoints):
        raise MergeError(f"{len(weights.values)} weights for {len(checkpoints)} checkpoints")
    base = checkpoints[0]
    names = list(base.params)
    for other in checkpoints[1:]:
        if other.digest != base.digest:
            raise MergeError("checkpoints come from different configs (digest mismatch)")
        if list(other.params) != names:
            raise MergeError("checkpoints disagree on parameter names/order")
        for name in names:
            if other.params[name].shape != base.params[name].shape:
                raise MergeError(
                    f"parameter {name}: shape {other.params[name].shape} "
                    f"!= {base.params[name].shape}"
                )
    merged = {}
    for name in names:
        acc = weights.values[0] * base.params[name].astype(np.float64)
        for w, ckpt in zip(weights.values[1:], checkpoints[1:]):
            acc = acc + w * ckpt.params[name].astype(np.float64)
        merged[name] = acc.astype(np.float32)
    return Checkpoint(config=base.config, vocab_tokens=base.vocab_tokens,
                      params=merged, digest=base.digest)
