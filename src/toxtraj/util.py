"""Shared plumbing: seeded RNG substreams, deterministic parallel map,
hashing, and the JSON codec every persisted record uses."""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

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

    ``to_json`` writes the fields in declaration order, nested records and
    lists (tuples become lists) included; ``from_json`` is ``cls(**doc)``. A
    class whose format is more than its fields overrides the pair and keeps
    ``save``/``load``. ``save`` indents by ``json_indent``; an indented file
    ends in a newline, a compact one does not.
    """

    json_indent: Optional[int] = None

    def to_json(self) -> dict:
        return {name: _encode(getattr(self, name)) for name in field_names(type(self))}

    @classmethod
    def from_json(cls, doc: dict):
        return cls(**doc)

    def save(self, path) -> None:
        text = json.dumps(self.to_json(), indent=self.json_indent)
        Path(path).write_text(text + "\n" if self.json_indent else text, encoding="utf-8")

    @classmethod
    def load(cls, path):
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


@functools.cache
def field_names(cls) -> tuple[str, ...]:
    """A dataclass's field names in declaration order."""
    return tuple(f.name for f in dataclasses.fields(cls))


def _encode(value):
    if isinstance(value, JsonRecord):
        return value.to_json()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
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
