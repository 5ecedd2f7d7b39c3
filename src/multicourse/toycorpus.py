"""Synthetic English-like corpus from a seeded template grammar.

Self-contained substitute for a real pretraining corpus. Content words are
grouped into themes and every sentence draws all its content slots from one
theme, so a randomly resampled token usually lands off-theme: corruption
detection has real statistical signal, while within-theme slots keep the
cloze task non-trivial. Everything regenerates bit-identically from a seed.
"""

import numpy as np

from .fileio import atomic_open

THEMES = {
    "farm": {
        "noun": ["farmer", "goat", "barn", "tractor", "meadow", "fence", "bucket", "orchard"],
        "vpast": ["plowed", "milked", "herded", "harvested", "mended", "fed"],
        "vpres": ["plows", "milks", "herds", "feeds"],
        "adj": ["muddy", "fertile", "rustic", "weathered", "sunlit"],
        "place": ["barnyard", "pasture", "silo", "stable"],
    },
    "harbor": {
        "noun": ["sailor", "boat", "anchor", "gull", "net", "dock", "tide", "cargo"],
        "vpast": ["moored", "sailed", "hauled", "unloaded", "charted", "rowed"],
        "vpres": ["moors", "sails", "hauls", "rows"],
        "adj": ["salty", "briny", "windward", "foggy", "seaworthy"],
        "place": ["pier", "lighthouse", "quay", "marina"],
    },
    "workshop": {
        "noun": ["painter", "easel", "canvas", "hammer", "chisel", "ladder", "lantern", "workbench"],
        "vpast": ["carved", "painted", "sanded", "polished", "sketched", "varnished"],
        "vpres": ["carves", "paints", "sands", "polishes"],
        "adj": ["wooden", "dusty", "unfinished", "sturdy", "crooked"],
        "place": ["studio", "attic", "cellar", "shed"],
    },
}

ADVS = ["slowly", "carefully", "twice", "yesterday", "together", "quietly"]
NAMES = ["anna", "oskar", "mira", "theo", "lena", "jonas"]

ALL_NOUNS = [n for theme in THEMES.values() for n in theme["noun"]]

_TEMPLATES = [
    "the {adj} {noun} {vpast} the {adj2} {noun2} {adv} .",
    "a {noun} near the {place} {vpres} the {adj} {noun2} .",
    "{name} {vpast} a {adj} {noun} in the {place} .",
    "every {noun} {vpres} when the {adj} {noun2} {vpres2} .",
    "the {noun} and the {noun2} {vpast} the {adj} {noun3} .",
    "{name} and {name2} {vpast} the {noun} near the {place} .",
    "the {adj} {noun} in the {place} {vpast} {adv} .",
    "a {adj} {noun} {vpast} the {noun2} before the {noun3} .",
]


def _pick(rng, pool):
    return pool[rng.integers(len(pool))]


def make_sentence(rng):
    theme = THEMES[_pick(rng, sorted(THEMES))]
    template = _pick(rng, _TEMPLATES)
    fields = {
        "noun": _pick(rng, theme["noun"]), "noun2": _pick(rng, theme["noun"]),
        "noun3": _pick(rng, theme["noun"]),
        "vpast": _pick(rng, theme["vpast"]), "vpres": _pick(rng, theme["vpres"]),
        "vpres2": _pick(rng, theme["vpres"]),
        "adj": _pick(rng, theme["adj"]), "adj2": _pick(rng, theme["adj"]),
        "adv": _pick(rng, ADVS), "place": _pick(rng, theme["place"]),
        "name": _pick(rng, NAMES), "name2": _pick(rng, NAMES),
    }
    return template.format(**fields)


def generate_corpus(n_sentences=1000, seed=7):
    rng = np.random.default_rng(seed)
    return [make_sentence(rng) for _ in range(n_sentences)]


def write_corpus(path, n_sentences=1000, seed=7):
    sentences = generate_corpus(n_sentences, seed)
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(sentences) + "\n")
    return sentences


def token_presence_dataset(n_examples=500, seed=11, target="lantern"):
    """Balanced binary probe task: does the sentence contain `target`?

    Positives get the target spliced over a noun slot; negatives are
    resampled until target-free, so the label depends on one token only.
    """
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n_examples):
        label = i % 2
        while True:
            sent = make_sentence(rng)
            words = sent.split()
            if label == 1:
                slots = [j for j, w in enumerate(words) if w in ALL_NOUNS and w != target]
                if not slots:
                    continue
                words[int(_pick(rng, slots))] = target
                sent = " ".join(words)
                break
            if target not in words:
                break
        examples.append((sent, label))
    return examples


def write_probe_dataset(path, n_examples=500, seed=11, target="lantern"):
    examples = token_presence_dataset(n_examples, seed, target)
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for sent, label in examples:
            fh.write(f"{label}\t{sent}\n")
    return examples
