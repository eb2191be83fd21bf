"""Text substrate: WordPiece tokenizer + classification head (§6.2 app)."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ClassifierHead": "classifier",
    "TextClassifier": "classifier",
    "init_classifier_head": "classifier",
    "CLS": "tokenizer",
    "PAD": "tokenizer",
    "SEP": "tokenizer",
    "SPECIAL_TOKENS": "tokenizer",
    "UNK": "tokenizer",
    "WordPieceTokenizer": "tokenizer",
    "basic_tokenize": "tokenizer",
    "pad_batch": "tokenizer",
})
