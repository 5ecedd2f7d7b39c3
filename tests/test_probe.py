import numpy as np
import pytest

from multicourse.encoder import EncoderConfig, Model
from multicourse.errors import InputError
from multicourse.probe import load_labeled_dataset, probe_train_eval
from multicourse.toycorpus import generate_corpus, token_presence_dataset
from multicourse.vocab import Vocab, build_vocab


@pytest.fixture(scope="module")
def vocab(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.txt"
    path.write_text("\n".join(generate_corpus(300, seed=1)) + "\n", encoding="utf-8")
    return build_vocab(path, 4096)


@pytest.fixture(scope="module")
def model(vocab):
    cfg = EncoderConfig(vocab_size=len(vocab), hidden_size=32, generator_layers=1,
                        discriminator_layers=2, attention_heads=2, ffn_inner_size=48,
                        max_seq_len=24, dropout_rate=0.1)
    return Model(cfg, seed=0)


def test_random_labels_score_at_chance(model, vocab):
    rng = np.random.default_rng(0)
    sentences = generate_corpus(500, seed=9)
    examples = [(vocab.encode(s), int(rng.integers(2))) for s in sentences]
    accuracy = probe_train_eval(model, examples, seed=0)
    assert abs(accuracy - 0.5) <= 0.1


def test_single_class_dataset_rejected(model, vocab):
    examples = [(vocab.encode(s), 1) for s in generate_corpus(20, seed=2)]
    with pytest.raises(InputError):
        probe_train_eval(model, examples, seed=0)


def test_token_presence_dataset_balance_and_labels():
    examples = token_presence_dataset(100, seed=4, target="lantern")
    labels = [label for _, label in examples]
    assert sum(labels) == 50
    for sent, label in examples:
        assert (("lantern" in sent.split()) == bool(label))


def test_dataset_loader_parses_and_validates(tmp_path, vocab):
    path = tmp_path / "probe.tsv"
    path.write_text("1\tthe fox watched the bird .\n0\ta river near the market .\n",
                    encoding="utf-8")
    examples = load_labeled_dataset(path, vocab, 24)
    assert len(examples) == 2
    assert examples[0][1] == 1 and examples[1][1] == 0

    bad = tmp_path / "bad.tsv"
    bad.write_text("2\toops\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_labeled_dataset(bad, vocab, 24)
    malformed = tmp_path / "malformed.tsv"
    malformed.write_text("no-tab-here\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_labeled_dataset(malformed, vocab, 24)


def test_probe_is_deterministic(model, vocab):
    examples = [(vocab.encode(s), i % 2) for i, s in enumerate(generate_corpus(60, seed=3))]
    a = probe_train_eval(model, examples, seed=5)
    b = probe_train_eval(model, examples, seed=5)
    assert a == b

