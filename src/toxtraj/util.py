"""Shared plumbing: seeded RNG substreams, deterministic parallel map,
hashing, and the JSON codec every persisted record uses."""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np


def _key_to_int(key) -> int:
    """Map a stream key (int or str) to a stable 64-bit integer."""
    if isinstance(key, (int, np.integer)):
        if key < 0:
            raise ValueError(f"stream keys must be non-negative, got {key}")
        return int(key)
    if isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"unsupported stream key type: {type(key)!r}")


def seed_for(root_seed: int, *keys) -> np.random.SeedSequence:
    """SeedSequence for the substream identified by (root_seed, *keys).

    Keys are ints or strings; the mapping is stable across processes and
    runs, so any task can be replayed in isolation.
    """
    spawn_key = tuple(_key_to_int(k) for k in keys)
    return np.random.SeedSequence(entropy=int(root_seed), spawn_key=spawn_key)


def substream(root_seed: int, *keys) -> np.random.Generator:
    """Independent generator for the substream identified by (root_seed, *keys)."""
    return np.random.Generator(np.random.PCG64(seed_for(root_seed, *keys)))


def parallel_map(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """Map fn over items, optionally on a thread pool.

    Results are slotted by input index, so output is identical for any
    worker count as long as fn(item) itself is deterministic.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(fn, item): i for i, item in enumerate(items)}
        for future, i in futures.items():
            results[i] = future.result()
    return results


class JsonRecord:
    """JSON persistence for a dataclass.

    ``to_json`` writes the fields in declaration order: a nested record as its
    own document, a tuple as a list, an ndarray by ``tolist()``. ``from_json``
    reads each key by its field's type: a record field by that record's
    ``from_json``, a tuple field as a tuple, ``list[X]`` item by item as X and
    ``Optional[X]`` with null as None; any other value is taken as it is. A
    missing key takes the field's default, an ``init=False`` field is written
    but not read back, and an unknown key raises ``TypeError``. A class whose
    format is more than its fields overrides the pair and keeps
    ``save``/``load``. ``save`` indents by ``json_indent``; an indented file
    ends in a newline, a compact one does not.
    """

    json_indent: Optional[int] = None

    def to_json(self) -> dict:
        return {name: _encode(getattr(self, name)) for name in _readers(type(self))}

    @classmethod
    def from_json(cls, doc: dict):
        readers = _readers(cls)
        return cls(**{k: v if r is None else r(v) for k, v in doc.items() if (r := readers.get(k)) is not _SKIP})

    def save(self, path) -> None:
        text = json.dumps(self.to_json(), indent=self.json_indent)
        Path(path).write_text(text + "\n" if self.json_indent else text, encoding="utf-8")

    @classmethod
    def load(cls, path):
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


# The reader of an ``init=False`` field: its saved value is not read back.
_SKIP = object()


@functools.cache
def _readers(cls) -> dict:
    """A record's fields in declaration order, each with the function that
    reads its JSON value (None: the value as it is)."""
    hints = get_type_hints(cls)
    return {f.name: _reader(hints[f.name]) if f.init else _SKIP for f in dataclasses.fields(cls)}


def _reader(hint) -> Optional[Callable]:
    if isinstance(hint, type) and issubclass(hint, JsonRecord):
        return hint.from_json
    origin, args = get_origin(hint), get_args(hint)
    if hint is tuple or origin is tuple:
        return tuple
    if origin is list and args and (item := _reader(args[0])) is not None:
        return lambda values: [item(v) for v in values]
    if origin is Union and args[1:] == (type(None),) and (inner := _reader(args[0])) is not None:
        return lambda value: None if value is None else inner(value)
    return None


def _encode(value):
    if isinstance(value, JsonRecord):
        return value.to_json()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def adjusted_rand_index(labels_a: Iterable, labels_b: Iterable) -> float:
    """Chance-corrected agreement between two labelings of the same points."""
    a = np.asarray(list(labels_a))
    b = np.asarray(list(labels_b))
    if a.shape != b.shape:
        raise ValueError("labelings must have equal length")
    n = a.size
    if n == 0:
        raise ValueError("empty labelings")
    _, a_idx = np.unique(a, return_inverse=True)
    _, b_idx = np.unique(b, return_inverse=True)
    contingency = np.zeros((a_idx.max() + 1, b_idx.max() + 1), dtype=np.int64)
    np.add.at(contingency, (a_idx, b_idx), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(contingency).sum()
    sum_rows = comb2(contingency.sum(axis=1)).sum()
    sum_cols = comb2(contingency.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_rows * sum_cols / total if total > 0 else 0.0
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))
