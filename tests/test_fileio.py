import numpy as np
import pytest

from multicourse.checkpoint import Checkpoint, save_checkpoint
from multicourse.encoder import EncoderConfig
from multicourse.errors import ConfigError, InputError
from multicourse.fileio import read_json
from multicourse.probe import load_labeled_dataset
from multicourse.runconfig import default_config_dict, save_config
from multicourse.soups import SweepManifest, SweepRun, save_manifest
from multicourse.trainer import load_corpus_sequences
from multicourse.vocab import Vocab, build_vocab


class Unserialisable:
    """Fails when the writer reaches it, after earlier parts are written."""

    ndim = 1
    shape = (3,)

    def __array__(self, *args, **kwargs):
        raise RuntimeError("disk full")


def _checkpoint(tail):
    config = EncoderConfig(vocab_size=8, hidden_size=4, attention_heads=1)
    params = {"a": np.arange(6, dtype=np.float32).reshape(2, 3), "b": tail}
    return Checkpoint(config=config, vocab_tokens=[], params=params, digest="")


def _manifest(score):
    run = SweepRun(name="re_mlm", losses=("re_mlm",), seed=0, checkpoint="c.bin", score=score)
    return SweepManifest(config_path="cfg.json", output_dir="out", runs=[run])


# (saver, a good value, a value whose serialisation raises partway through)
SAVERS = {
    "checkpoint": (lambda value, path: save_checkpoint(path, value),
                   _checkpoint(np.ones(3, dtype=np.float32)), _checkpoint(Unserialisable())),
    "manifest": (lambda value, path: save_manifest(value, path),
                 _manifest(0.5), _manifest(Unserialisable())),
    "config": (save_config, default_config_dict("corpus.txt", "run"),
               {**default_config_dict("corpus.txt", "run"), "zz_last": Unserialisable()}),
}


@pytest.mark.parametrize("kind", sorted(SAVERS))
def test_failed_write_keeps_previous_file(kind, tmp_path):
    save, good, bad = SAVERS[kind]
    path = tmp_path / "target"
    save(good, path)
    before = path.read_bytes()
    with pytest.raises((RuntimeError, TypeError)):
        save(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["target"]


VOCAB = Vocab(["<pad>", "<mask>", "<cls>", "<unk>", "the", "fox", "."])
# (reader, the error it raises on bytes that are not UTF-8, a good first line)
READERS = {
    "read_json": (read_json, ConfigError, b'{"a":'),
    "build_vocab": (lambda path: build_vocab(path, 10), InputError, b"the fox ."),
    "load_corpus_sequences": (lambda path: load_corpus_sequences(path, VOCAB, 8), InputError,
                              b"the fox ."),
    "load_labeled_dataset": (lambda path: load_labeled_dataset(path, VOCAB, 8), InputError,
                             b"1\tthe fox ."),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_file_that_is_not_utf8_raises_an_error_naming_it(reader, tmp_path):
    read, error, first = READERS[reader]
    path = tmp_path / "input.bin"
    path.write_bytes(first + b"\n\xff\xfe fox\n")
    with pytest.raises(error, match="input.bin is not UTF-8"):
        read(path)
