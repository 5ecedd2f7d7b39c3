"""Whitespace-and-punctuation tokenizer with a frequency-ranked vocabulary.

Reserved ids are fixed: PAD=0, MASK=1, CLS=2; UNK=3 catches anything the
vocabulary does not cover. Corpus text can never produce a reserved token
because the reserved surface forms contain angle brackets, which the
tokenizer always splits.
"""

import re
from collections import Counter

from .errors import InputError
from .fileio import text_lines

PAD_ID = 0
MASK_ID = 1
CLS_ID = 2
UNK_ID = 3

PAD_TOKEN = "<pad>"
MASK_TOKEN = "<mask>"
CLS_TOKEN = "<cls>"
UNK_TOKEN = "<unk>"

_RESERVED = (PAD_TOKEN, MASK_TOKEN, CLS_TOKEN, UNK_TOKEN)

# word characters (incl. apostrophe) or a single non-space symbol
_TOKEN_RE = re.compile(r"[A-Za-z0-9_']+|[^\sA-Za-z0-9_']")


def tokenize(text):
    """Deterministic, locale-independent split into words and punctuation."""
    return _TOKEN_RE.findall(text)


class Vocab:
    """Bijective token/id mapping with reserved entries at ids 0-3."""

    def __init__(self, tokens):
        if list(tokens[:4]) != list(_RESERVED):
            raise InputError("vocab must start with the reserved tokens")
        self.id_to_token = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise InputError("duplicate token in vocabulary")

    def __len__(self):
        return len(self.id_to_token)

    def encode(self, text):
        return [self.token_to_id.get(t, UNK_ID) for t in tokenize(text)]

    def decode(self, ids):
        return " ".join(self.id_to_token[i] for i in ids)


def build_vocab(corpus_path, max_size):
    """Frequency-ranked vocabulary over a one-sentence-per-line UTF-8 corpus.

    Ties in frequency break lexicographically so the ranking is total.
    `max_size` counts the reserved entries and UNK.
    """
    counts = Counter()
    n_lines = 0
    for line in text_lines(corpus_path):
        line = line.strip()
        if not line:
            continue
        n_lines += 1
        counts.update(tokenize(line))
    if n_lines == 0:
        raise InputError(f"corpus {corpus_path} is empty")
    if max_size < len(_RESERVED):
        raise InputError(f"max_size {max_size} cannot hold the reserved entries")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [tok for tok, _ in ranked[: max_size - len(_RESERVED)]]
    return Vocab(list(_RESERVED) + keep)
