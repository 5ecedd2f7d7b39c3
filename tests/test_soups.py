import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicourse.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from multicourse.encoder import EncoderConfig, Model
from multicourse.errors import ConfigError, MergeError
from multicourse.soups import (
    _MERGE_BLOCK,
    CORRECTION_LOSSES,
    SoupWeights,
    SweepManifest,
    SweepRun,
    default_manifest,
    enumerate_subsets,
    load_manifest,
    merge_checkpoints,
    save_manifest,
    score_runs,
)


def small_config():
    return EncoderConfig(vocab_size=8, hidden_size=16, generator_layers=1,
                         discriminator_layers=1, attention_heads=2, ffn_inner_size=24,
                         max_seq_len=12, dropout_rate=0.0)


def checkpoint_from_seed(seed):
    model = Model(small_config(), seed=seed)
    return Checkpoint(config=model.config, vocab_tokens=[], params=model.state(),
                      digest="d" * 64)


# -- subsets ------------------------------------------------------------------


def test_exactly_fourteen_subsets():
    subsets = enumerate_subsets()
    assert len(subsets) == 14
    assert len(set(subsets)) == 14


def test_contains_singles_and_triples():
    subsets = enumerate_subsets()
    assert ("re_mlm",) in subsets
    assert ("re_rtd", "re_slm", "re_std") in subsets


def test_excludes_empty_and_full_set():
    subsets = enumerate_subsets()
    assert () not in subsets
    assert tuple(CORRECTION_LOSSES) not in subsets
    sizes = sorted(len(s) for s in subsets)
    assert sizes == [1] * 4 + [2] * 6 + [3] * 4


def test_enumeration_is_deterministic():
    assert enumerate_subsets() == enumerate_subsets()


# -- weights ---------------------------------------------------------------------


def test_uniform_weights():
    w = SoupWeights.uniform(4)
    np.testing.assert_allclose(w.values, 0.25)


def test_weights_must_normalize():
    with pytest.raises(ConfigError):
        SoupWeights(np.array([0.5, 0.6]))
    with pytest.raises(ConfigError):
        SoupWeights(np.array([-0.1, 1.1]))


@pytest.mark.parametrize("values", [[np.nan], [0.5, np.nan], [np.inf, 0.0]])
def test_weights_must_be_finite(values):
    with pytest.raises(ConfigError):
        SoupWeights(np.array(values))


def _manifest_with_scores(scores):
    runs = [SweepRun(name=f"r{i}", losses=("re_mlm",) if i == 0 else ("re_rtd",),
                     seed=i, checkpoint=f"c{i}.bin", score=s)
            for i, s in enumerate(scores)]
    return SweepManifest(config_path="cfg.json", output_dir=".", runs=runs)


def test_score_runs_proportional():
    w = score_runs(_manifest_with_scores([1.0, 3.0]))
    np.testing.assert_allclose(w.values, [0.25, 0.75])


def test_equal_scores_yield_uniform():
    w = score_runs(_manifest_with_scores([0.7, 0.7]))
    np.testing.assert_allclose(w.values, [0.5, 0.5])


def test_zero_scores_are_refused():
    with pytest.raises(ConfigError, match="positive finite sum"):
        score_runs(_manifest_with_scores([0.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_score_rejected(bad):
    with pytest.raises(ConfigError):
        score_runs(_manifest_with_scores([0.9, bad]))


def test_missing_scores_are_refused_naming_the_runs():
    with pytest.raises(ConfigError, match=r"\['r0', 'r2'\] have no score"):
        score_runs(_manifest_with_scores([None, 0.9, None]))


def test_proportional_weights_divide_by_the_float_sum():
    values = np.array([0.1, 0.7, 0.2, 0.3])
    np.testing.assert_array_equal(SoupWeights.proportional(values).values,
                                  values / float(values.sum()))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8))
def test_score_weights_sum_to_one(scores):
    w = score_runs(_manifest_with_scores(scores))
    assert abs(float(w.values.sum()) - 1.0) < 1e-9


# -- merging --------------------------------------------------------------------


def test_uniform_merge_of_scalar_params():
    a = Checkpoint(config=small_config(), vocab_tokens=[], digest="x" * 64,
                   params={"p": np.array([1.0], dtype=np.float32)})
    b = Checkpoint(config=small_config(), vocab_tokens=[], digest="x" * 64,
                   params={"p": np.array([3.0], dtype=np.float32)})
    merged = merge_checkpoints([a, b], SoupWeights.uniform(2))
    np.testing.assert_allclose(merged.params["p"], [2.0])


@pytest.mark.parametrize("k", [2, 3, 7])
def test_identical_checkpoints_merge_to_themselves_bitwise(k):
    base = checkpoint_from_seed(0)
    copies = [Checkpoint(config=base.config, vocab_tokens=[], digest=base.digest,
                         params={n: a.copy() for n, a in base.params.items()})
              for _ in range(k)]
    for weights in (SoupWeights.uniform(k),
                    SoupWeights(np.random.default_rng(k).dirichlet(np.ones(k)))):
        merged = merge_checkpoints(copies, weights)
        for name in base.params:
            np.testing.assert_array_equal(merged.params[name], base.params[name], err_msg=name)


def test_weighted_merge_matches_scalar_oracle():
    a, b = checkpoint_from_seed(1), checkpoint_from_seed(2)
    merged = merge_checkpoints([a, b], SoupWeights(np.array([0.25, 0.75])))
    for name in a.params:
        oracle = np.empty_like(a.params[name], dtype=np.float64)
        flat_o = oracle.reshape(-1)
        fa, fb = a.params[name].reshape(-1), b.params[name].reshape(-1)
        for i in range(fa.size):
            flat_o[i] = 0.25 * float(fa[i]) + 0.75 * float(fb[i])
        assert np.abs(merged.params[name].astype(np.float64) - oracle).max() < 1e-7


def test_merge_is_the_float64_left_fold_bit_for_bit():
    k, block = 14, _MERGE_BLOCK
    shapes = {"below": (block - 1,), "block": (block,), "ragged": (3, block - 5), "one": (1,)}
    rng = np.random.default_rng(27)
    weights = SoupWeights(rng.dirichlet(np.ones(k)))
    params = [{n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()}
              for _ in range(k - 1)]
    # the last ingredient nearly cancels the others, so the float32 result keeps the low
    # bits of the float64 sum and a different summation order changes it
    params.append({n: (-sum(w * p[n].astype(np.float64) for w, p in zip(weights.values, params))
                       / weights.values[-1]).astype(np.float32) for n in shapes})
    ckpts = [Checkpoint(config=small_config(), vocab_tokens=[], params=p, digest="d" * 64)
             for p in params]
    merged = merge_checkpoints(ckpts, weights)
    for name, shape in shapes.items():
        acc = np.zeros(shape)
        for w, p in zip(weights.values, params):
            acc = acc + w * p[name].astype(np.float64)
        got = merged.params[name]
        assert got.dtype == np.float32 and np.array_equal(got, acc.astype(np.float32)), name


def test_merge_is_permutation_invariant():
    a, b, c = (checkpoint_from_seed(s) for s in (1, 2, 3))
    w = np.array([0.2, 0.3, 0.5])
    m1 = merge_checkpoints([a, b, c], SoupWeights(w))
    m2 = merge_checkpoints([c, a, b], SoupWeights(w[[2, 0, 1]]))
    for name in a.params:
        np.testing.assert_allclose(m1.params[name], m2.params[name], atol=2e-7)


def test_merge_rejects_shape_mismatch():
    a, b = checkpoint_from_seed(1), checkpoint_from_seed(2)
    b.params["head.rtd.w"] = np.zeros(7, dtype=np.float32)
    with pytest.raises(MergeError) as err:
        merge_checkpoints([a, b], SoupWeights.uniform(2))
    assert "head.rtd.w" in str(err.value)


def test_merge_rejects_digest_mismatch():
    a, b = checkpoint_from_seed(1), checkpoint_from_seed(2)
    b.digest = "e" * 64
    with pytest.raises(MergeError):
        merge_checkpoints([a, b], SoupWeights.uniform(2))


def test_merged_checkpoint_runs_forward(tmp_path):
    model_a, model_b = Model(small_config(), seed=1), Model(small_config(), seed=2)
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(pa, model_a)
    save_checkpoint(pb, model_b)
    merged = merge_checkpoints([load_checkpoint(pa), load_checkpoint(pb)],
                               SoupWeights.uniform(2))
    out = tmp_path / "soup.bin"
    save_checkpoint(out, merged)
    from multicourse.checkpoint import build_model
    model = build_model(load_checkpoint(out))
    ids = np.array([[4, 5, 6, 7]])
    h = model.encode_discriminator(ids, np.ones_like(ids))
    assert np.isfinite(h.data).all()


# -- manifest ---------------------------------------------------------------------


def test_default_manifest_has_all_subsets(tmp_path):
    manifest = default_manifest("cfg.json", tmp_path)
    assert len(manifest.runs) == 14
    manifest.validate()
    path = tmp_path / "manifest.json"
    save_manifest(manifest, path)
    loaded = load_manifest(path)
    assert [r.name for r in loaded.runs] == [r.name for r in manifest.runs]
    assert [tuple(r.losses) for r in loaded.runs] == enumerate_subsets()


def test_manifest_rejects_duplicates(tmp_path):
    first = default_manifest("cfg.json", tmp_path).runs[0]
    # a second run with the first's correction subset, name or checkpoint file
    for dup in (dict(name="dup", checkpoint="x.bin"),
                dict(losses=("re_rtd",), checkpoint="x.bin"),
                dict(name="dup", losses=("re_rtd",),
                     checkpoint=f"{tmp_path}/./{first.name}/checkpoint_final.bin")):
        manifest = default_manifest("cfg.json", tmp_path)
        manifest.runs[1] = SweepRun(**{"name": first.name, "losses": first.losses, "seed": 0, **dup})
        with pytest.raises(ConfigError, match="duplicate"):
            manifest.validate()
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest.to_dict()), encoding="utf-8")
        with pytest.raises(ConfigError, match="duplicate"):
            load_manifest(path)


def test_manifest_rejects_unknown_loss(tmp_path):
    manifest = default_manifest("cfg.json", tmp_path)
    manifest.runs[0] = SweepRun(name="bad", losses=("re_nope",), seed=0, checkpoint="x.bin")
    with pytest.raises(ConfigError):
        manifest.validate()


def test_manifest_rejects_unknown_keys(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"config": "c", "runs": [], "typo_key": 1}', encoding="utf-8")
    with pytest.raises(ConfigError):
        load_manifest(path)
