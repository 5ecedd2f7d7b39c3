"""Course soups: sweep the correction-loss subsets, then average checkpoints.

A sweep trains one model per proper non-empty subset of the four
correction losses (14 in all, self-supervision always on). Merging is a
weighted arithmetic mean per parameter with a fixed left-fold order in
float64, so uniform and equal-weighted soups coincide bit-for-bit after
the float32 cast.
"""

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint
from .errors import ConfigError, MergeError
from .fileio import atomic_open, read_json

CORRECTION_LOSSES = ("re_mlm", "re_rtd", "re_slm", "re_std")
# float64 elements per merge scratch array: the two arrays (256 KiB) stay in cache
_MERGE_BLOCK = 1 << 14


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
        # two runs of one checkpoint file would be swept into it and merged twice
        seen = set()
        for run in self.runs:
            unknown = set(run.losses) - set(CORRECTION_LOSSES)
            if unknown:
                raise ConfigError(f"run {run.name}: unknown correction losses {sorted(unknown)}")
            for key in (("correction subset", tuple(sorted(run.losses))), ("name", run.name),
                        ("checkpoint", Path(run.checkpoint).resolve())):
                if key in seen:
                    raise ConfigError(f"run {run.name}: duplicate {key[0]} {key[1]}")
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

    def text(value, what):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: {what} is {value!r}, not a string")
        if "\0" in value:  # each string names a file or directory, and no path holds a NUL
            raise ConfigError(f"{path}: {what} holds a NUL byte")
        return value

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
        name = text(entry["name"], f"run {len(runs)}'s name")
        checkpoint = text(entry["checkpoint"], f"run {name!r}'s checkpoint")
        losses, seed, score = entry["losses"], entry.get("seed", 0), entry.get("score")
        if not (isinstance(losses, list) and all(isinstance(loss, str) for loss in losses)):
            raise ConfigError(f"{path}: run {name!r} has losses {losses!r}, not a list of strings")
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"{path}: run {name!r} has seed {seed!r}, "
                              f"not a nonnegative integer")
        if score is not None and (isinstance(score, bool) or not isinstance(score, (int, float))):
            raise ConfigError(f"{path}: run {name!r} has score {score!r}, not a number")
        runs.append(SweepRun(name=name, losses=tuple(losses), seed=seed,
                             checkpoint=checkpoint, score=score))
    probe_data = raw.get("probe_data")
    manifest = SweepManifest(config_path=text(raw["config"], "'config'"),
                             output_dir=text(raw.get("output_dir", "."), "'output_dir'"), runs=runs,
                             probe_data=None if probe_data is None else text(probe_data, "'probe_data'"))
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

    @classmethod
    def proportional(cls, values, what="weights"):
        """Weights proportional to `values`, each divided by float(values.sum()).
        The values must be finite and nonnegative with a positive finite sum;
        ConfigError names them `what` otherwise."""
        try:
            values = np.asarray(values, dtype=np.float64)
        except OverflowError:  # an int beyond float range
            raise ConfigError(f"{what} must be finite, got {values}") from None
        if not (np.isfinite(values) & (values >= 0)).all():
            raise ConfigError(f"{what} must be finite and nonnegative, got {values.tolist()}")
        with np.errstate(over="ignore"):  # a sum beyond float range is refused just below
            total = float(values.sum())
        if not 0.0 < total < np.inf:
            raise ConfigError(f"{what} must have a positive finite sum, got {values.tolist()}")
        return cls(values / total)


def score_runs(manifest: SweepManifest, scores=None) -> SoupWeights:
    """Weights proportional to per-run scores, the manifest's by default. A run
    without a score, or scores summing to zero, raise ConfigError."""
    if scores is None:
        scores = [run.score for run in manifest.runs]
    unscored = [run.name for run, score in zip(manifest.runs, scores) if score is None]
    if unscored:
        raise ConfigError(f"runs {unscored} have no score; a weighted soup needs every run "
                          f"scored (sweep with probe_data) or a weight file")
    return SoupWeights.proportional(scores, "scores")


def merge_checkpoints(checkpoints, weights: SoupWeights) -> Checkpoint:
    """Weighted mean of every parameter; optimizer state never exists here.

    Accumulation is a float64 left fold in manifest order over parameters
    in canonical checkpoint order, cast to float32 at the end; merging K
    identical checkpoints therefore reproduces them bit-exactly. Each
    parameter is folded one block of `_MERGE_BLOCK` elements at a time in two
    preallocated float64 arrays, which keeps every element's fold, and so
    the result, bit-identical to folding whole float64 copies.
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
    w0, *ws = weights.values
    acc, term = np.empty(_MERGE_BLOCK), np.empty(_MERGE_BLOCK)
    merged = {}
    for name in names:
        x0, *xs = (ck.params[name].reshape(-1) for ck in checkpoints)
        out = np.empty(base.params[name].shape, dtype=np.float32)
        flat = out.reshape(-1)
        for start in range(0, flat.size, _MERGE_BLOCK):
            stop = min(start + _MERGE_BLOCK, flat.size)
            a, t = acc[:stop - start], term[:stop - start]
            np.multiply(x0[start:stop], w0, out=a, dtype=np.float64)
            for w, x in zip(ws, xs):
                np.multiply(x[start:stop], w, out=t, dtype=np.float64)
                np.add(a, t, out=a)
            flat[start:stop] = a
        merged[name] = out
    return Checkpoint(config=base.config, vocab_tokens=base.vocab_tokens,
                      params=merged, digest=base.digest)
