"""The benchmark's tracer (perfbench/tracing.py) against this program.

The tracer wraps the program's functions by name and reads some of their
arguments and results by position. One sampled training step with every
course on runs under it here: every course, correction, encoder and autodiff
op span must record a call, and the counts the tracer takes must equal the step's own
CourseBatch.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from multicourse import autodiff as ad
from multicourse.courses import CorruptionRates, TokenSequence
from multicourse.encoder import EncoderConfig, Model
from multicourse.trainer import Adam, TrainConfig, step_losses, train_step

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
ENCODER = EncoderConfig(vocab_size=30, hidden_size=16, generator_layers=1, discriminator_layers=1,
                        attention_heads=2, ffn_inner_size=24, max_seq_len=14, dropout_rate=0.1)
TRAIN = TrainConfig(total_steps=10, warmup_steps=1, batch_size=6, seed=0)
RATES = CorruptionRates(0.3, 0.3, 0.3)
SEED = 7


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sequences():
    rng = np.random.default_rng(3)
    # the two longest overflow max_seq_len once extended, so the insert course skips them
    return [TokenSequence(rng.integers(4, 30, size=n)) for n in (4, 6, 7, 9, 11, 12)]


@pytest.fixture(scope="module")
def traced():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        model = Model(ENCODER, seed=0)
        record = train_step(model, sequences(), Adam(model, TRAIN), TRAIN, RATES,
                            np.random.default_rng(SEED))
    finally:
        tracer.uninstall()
    return tracing, tracer, record


@pytest.fixture(scope="module")
def batch():
    """The traced step's CourseBatch, rebuilt by the same step from the same seeds."""
    model = Model(ENCODER, seed=0)
    with ad.Tape():
        _, batch = step_losses(model, sequences(), TRAIN, RATES, np.random.default_rng(SEED))
    return batch


def test_every_course_correction_and_encoder_span_records_a_call(traced):
    tracing, tracer, _ = traced
    names = {row[2] for row in tracing.WRAPPED
             if row[2].split(".")[0] in ("courses", "correction", "encoder")}
    spans = tracer.spans()
    assert [n for n in sorted(names) if spans.count(n) == 0] == []


def test_traced_counts_equal_the_steps_course_batch(traced, batch):
    _, tracer, record = traced
    rtd, std = batch.notebooks["rtd"], batch.notebooks["std"]
    assert record.pos_counts == tuple(len(cell) for cell in rtd.cells())  # the same step
    assert 0 < len(batch.itd_kept) < len(batch.originals)
    counts = tracer.counters
    assert counts["courses.sampled_tokens"] == (
        len(batch.mask_rows) + len(batch.swap_rows) + len(batch.insert_rows))
    assert counts["courses.itd_attempted"] == len(batch.originals)
    assert counts["courses.itd_kept"] == len(batch.itd_kept)
    assert counts["correction.regen_positions"] == len(rtd.pos4) + len(std.pos4)
    assert counts["correction.retry_positions"] == sum(
        len(nb.pos2) + len(nb.pos3) for nb in (rtd, std))
    assert counts["correction.retry_positions"] > 0


def test_every_autodiff_op_the_tracer_wraps_records_a_call(traced):
    # ad.ffn and ad.add_layer_norm run the public ops, so a traced step still
    # times each encoder layer's matmuls, GELU, dropouts and layer norms
    tracing, tracer, _ = traced
    spans = tracer.spans()
    assert [op for op in tracing.AUTODIFF_OPS if spans.count(f"autodiff.{op}") == 0] == []
