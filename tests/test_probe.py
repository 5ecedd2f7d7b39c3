import numpy as np
import pytest

from multicourse import autodiff as ad
from multicourse.encoder import EncoderConfig, Model
from multicourse.errors import InputError
from multicourse.probe import (FIT_EPOCHS, FIT_LR, _fit_logistic, load_labeled_dataset,
                               probe_train_eval, read_labeled_sentences)
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



def taped_fit_logistic(features, labels, seed):
    """The oracle: full-batch Adam on BCE for a linear layer, through the tape."""
    rng = np.random.default_rng(seed)
    n, dim = features.shape
    w = ad.Tensor(rng.normal(0, 0.01, (dim, 1)).astype(np.float32), requires_grad=True)
    b = ad.Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    x = ad.Tensor(features.astype(np.float32))
    y = labels.astype(np.float32)
    m = {id(w): 0.0, id(b): 0.0}
    v = {id(w): 0.0, id(b): 0.0}
    for t in range(1, FIT_EPOCHS + 1):
        w.grad = b.grad = None
        with ad.Tape() as tape:
            logits = ad.reshape(ad.matmul(x, w, b), (n,))
            loss = ad.sigmoid_bce(logits, y)
            tape.backward(loss)
        for p in (w, b):
            m[id(p)] = 0.9 * m[id(p)] + 0.1 * p.grad
            v[id(p)] = 0.999 * v[id(p)] + 0.001 * p.grad ** 2
            mh = m[id(p)] / (1 - 0.9 ** t)
            vh = v[id(p)] / (1 - 0.999 ** t)
            p.data = p.data - FIT_LR * mh / (np.sqrt(vh) + 1e-8)
    return w.data[:, 0], float(b.data[0])


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("n, dim", [(320, 32), (77, 5), (9, 1)])
def test_the_fit_has_the_taped_loops_bits(seed, n, dim):
    rng = np.random.default_rng(100 + seed)
    features = rng.normal(0, 1, (n, dim)).astype(np.float32)
    labels = rng.integers(0, 2, n)
    w, b = _fit_logistic(features, labels, seed)
    w_taped, b_taped = taped_fit_logistic(features, labels, seed)
    assert w.dtype == np.float32 and w.shape == (dim,)
    assert np.array_equal(w, w_taped)
    assert b == b_taped


def test_the_fit_records_no_op_on_an_active_tape():
    rng = np.random.default_rng(2)
    with ad.Tape() as tape:
        _fit_logistic(rng.normal(0, 1, (21, 4)).astype(np.float32), rng.integers(0, 2, 21), 0)
    assert tape.ops == []


def test_labeled_sentences_parse_without_a_vocabulary(tmp_path):
    path = tmp_path / "probe.tsv"
    path.write_text("1\tthe fox\tsat .\n\n0\ta river .\n", encoding="utf-8")
    assert read_labeled_sentences(path) == [("the fox\tsat .", 1), ("a river .", 0)]
    empty = tmp_path / "empty.tsv"
    empty.write_text("\n", encoding="utf-8")
    with pytest.raises(InputError, match="is empty"):
        read_labeled_sentences(empty)
