"""Post corpus: data model, ingestion, validation, and persistence.

A corpus is a set of posts (NDJSON on disk), optionally joined to an
embedding matrix (binary "EMB1" format plus a sidecar of post ids in row
order). Posts are kept in a canonical order so that every downstream
sampling step is deterministic.
"""
from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .util import JsonRecord

logger = logging.getLogger(__name__)

EMB_MAGIC = b"EMB1"

# Study window defaults: 2023-04-17T00:00Z .. 2023-10-27T23:59Z, a 194-day span.
DEFAULT_T0 = 1681689600
DEFAULT_T_END = 1698451140
DEFAULT_DAILY_GRID = 194
DEFAULT_WEEK_LEN_DAYS = 7

class CorpusError(ValueError):
    """Raised for malformed or inconsistent corpus inputs."""


def normalize_toxicity(raw: int) -> float:
    """Map a 1..5 rating onto the 0..100 scale: (raw - 1) / 4 * 100."""
    if not isinstance(raw, (int, np.integer)) or isinstance(raw, bool):
        raise CorpusError(f"toxicity_raw must be an integer in 1..5, got {raw!r}")
    if raw < 1 or raw > 5:
        raise CorpusError(f"toxicity_raw must be in 1..5, got {raw}")
    return (raw - 1) * 25.0


def parse_utc(text: str) -> int:
    """Parse an ISO-8601 timestamp (Z suffix allowed) to Unix seconds."""
    cleaned = text.strip()
    if cleaned.endswith("Z"):
        cleaned = cleaned[:-1] + "+00:00"
    dt = datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


@dataclass(frozen=True)
class StudyWindow(JsonRecord):
    """Observation window and the fixed interpolation grids."""

    json_indent = 2

    t0: int = DEFAULT_T0
    t_end: int = DEFAULT_T_END
    n_daily_grid: int = DEFAULT_DAILY_GRID
    week_len_days: int = DEFAULT_WEEK_LEN_DAYS

    def __post_init__(self):
        if self.t_end <= self.t0:
            raise CorpusError(f"t_end ({self.t_end}) must exceed t0 ({self.t0})")
        if self.n_daily_grid < 2:
            raise CorpusError("n_daily_grid must be at least 2")
        if self.week_len_days < 1:
            raise CorpusError("week_len_days must be positive")

    @property
    def n_weeks(self) -> int:
        return self.n_daily_grid // self.week_len_days

    def normalized_time(self, timestamp) -> float:
        return (np.asarray(timestamp, dtype=np.float64) - self.t0) / (self.t_end - self.t0)

    def tau_grid(self) -> np.ndarray:
        """Grid points g / (G - 1) for g = 0 .. G-1 in normalized time."""
        g = self.n_daily_grid
        return np.arange(g, dtype=np.float64) / (g - 1)

    def contains(self, timestamp: int) -> bool:
        return self.t0 <= timestamp <= self.t_end


def study_window(
    t0: int | str | None = None,
    t_end: int | str | None = None,
    n_daily_grid: int = DEFAULT_DAILY_GRID,
    week_len_days: int = DEFAULT_WEEK_LEN_DAYS,
) -> StudyWindow:
    """Build a StudyWindow, defaults as above. A string is an ISO-8601 time,
    or Unix seconds when all digits (the form window.json stores)."""

    def seconds(value, default):
        if value is None:
            return default
        if isinstance(value, str) and not value.strip().isdigit():
            return parse_utc(value)
        return int(value)

    return StudyWindow(
        t0=seconds(t0, DEFAULT_T0),
        t_end=seconds(t_end, DEFAULT_T_END),
        n_daily_grid=n_daily_grid,
        week_len_days=week_len_days,
    )


@dataclass
class PostRecord:
    """One post with its annotations and embedding link."""

    post_id: str
    user_id: str
    timestamp: int
    text: Optional[str] = None
    toxicity_raw: Optional[int] = None
    toxicity: Optional[float] = None
    embedding_row: Optional[int] = None

    def sort_key(self):
        return (self.user_id, self.timestamp, self.post_id)


@dataclass
class EmbeddingMatrix:
    """Row-major n x d matrix aligned to posts via row_ids."""

    values: np.ndarray
    row_ids: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise CorpusError("embedding values must be a 2-D matrix")
        if not np.all(np.isfinite(self.values)):
            raise CorpusError("embedding matrix contains non-finite entries")
        if len(self.row_ids) != self.values.shape[0]:
            raise CorpusError("row_ids length does not match row count")
        if len(set(self.row_ids)) != len(self.row_ids):
            raise CorpusError("row_ids must be unique")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass
class Corpus:
    """Immutable-after-load post collection with optional embeddings."""

    posts: list[PostRecord]
    window: StudyWindow
    embeddings: Optional[EmbeddingMatrix] = None
    n_dropped_outside_window: int = 0
    _by_id: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.posts = sorted(self.posts, key=PostRecord.sort_key)
        self._by_id = {p.post_id: p for p in self.posts}
        if len(self._by_id) != len(self.posts):
            seen = set()
            for p in self.posts:
                if p.post_id in seen:
                    raise CorpusError(f"duplicate post_id: {p.post_id!r}")
                seen.add(p.post_id)

    def __len__(self) -> int:
        return len(self.posts)

    def by_user(self) -> dict[str, list[PostRecord]]:
        users: dict[str, list[PostRecord]] = {}
        for p in self.posts:
            users.setdefault(p.user_id, []).append(p)
        return users

    def post_for_row(self, row: int) -> PostRecord:
        if self.embeddings is None:
            raise CorpusError("corpus has no embeddings attached")
        return self._by_id[self.embeddings.row_ids[row]]


def _coerce_post(doc: dict, line_no: int) -> PostRecord:
    try:
        post_id = str(doc["post_id"])
        user_id = str(doc["user_id"])
        timestamp = doc["timestamp"]
    except KeyError as exc:
        raise CorpusError(f"line {line_no}: missing required key {exc}") from None
    if not isinstance(timestamp, (int, np.integer)) or isinstance(timestamp, bool):
        raise CorpusError(f"line {line_no}: timestamp must be an integer, got {timestamp!r}")
    text = doc.get("text")
    if text is not None and not isinstance(text, str):
        raise CorpusError(f"line {line_no}: text must be a string when present")
    raw = doc.get("toxicity_raw")
    toxicity = doc.get("toxicity")
    if raw is not None:
        try:
            normalized = normalize_toxicity(raw)
        except CorpusError as exc:
            raise CorpusError(f"line {line_no}: {exc}") from None
        if toxicity is not None and not math.isclose(toxicity, normalized, abs_tol=1e-9):
            raise CorpusError(
                f"line {line_no}: toxicity {toxicity} inconsistent with toxicity_raw {raw}"
            )
        toxicity = normalized
    elif toxicity is not None:
        toxicity = float(toxicity)
        if not (0.0 <= toxicity <= 100.0):
            raise CorpusError(f"line {line_no}: toxicity must lie in [0, 100], got {toxicity}")
    return PostRecord(
        post_id=post_id,
        user_id=user_id,
        timestamp=int(timestamp),
        text=text,
        toxicity_raw=None if raw is None else int(raw),
        toxicity=toxicity,
    )


def read_posts(path) -> list[PostRecord]:
    """Parse an NDJSON posts file; errors carry the offending line number."""
    posts = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {line_no}: invalid JSON ({exc.msg})") from None
            if not isinstance(doc, dict):
                raise CorpusError(f"line {line_no}: expected a JSON object")
            posts.append(_coerce_post(doc, line_no))
    return posts


def write_posts(path, posts: Iterable[PostRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in posts:
            doc = {"post_id": p.post_id, "user_id": p.user_id, "timestamp": p.timestamp}
            if p.text is not None:
                doc["text"] = p.text
            if p.toxicity_raw is not None:
                doc["toxicity_raw"] = p.toxicity_raw
            elif p.toxicity is not None:
                doc["toxicity"] = p.toxicity
            fh.write(json.dumps(doc, ensure_ascii=False) + "\n")


def sidecar_path(embeddings_path) -> Path:
    return Path(str(embeddings_path) + ".ids")


def write_embeddings(path, values: np.ndarray, row_ids: Sequence[str]) -> None:
    """Write the EMB1 binary format (float32 LE) plus the id sidecar."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise CorpusError("embedding values must be a 2-D matrix")
    n, d = values.shape
    if len(row_ids) != n:
        raise CorpusError("row_ids length does not match row count")
    with open(path, "wb") as fh:
        fh.write(EMB_MAGIC)
        fh.write(struct.pack("<II", n, d))
        fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes())
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        for rid in row_ids:
            fh.write(rid + "\n")


def read_embeddings(path) -> EmbeddingMatrix:
    """Read an EMB1 file; 32-bit values are promoted to 64-bit."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != EMB_MAGIC:
            raise CorpusError(f"bad embedding file magic: {magic!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise CorpusError("truncated embedding header")
        n, d = struct.unpack("<II", header)
        payload = fh.read()
    expected = n * d * 4
    if len(payload) != expected:
        raise CorpusError(f"embedding payload is {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f4").reshape(n, d).astype(np.float64)
    ids_file = sidecar_path(path)
    if not ids_file.exists():
        raise CorpusError(f"missing embedding id sidecar: {ids_file}")
    row_ids = ids_file.read_text(encoding="utf-8").splitlines()
    if len(row_ids) != n:
        raise CorpusError(f"sidecar has {len(row_ids)} ids, embedding file has {n} rows")
    return EmbeddingMatrix(values=values, row_ids=row_ids)


def load_corpus(
    posts_path,
    embeddings_path=None,
    window: StudyWindow | None = None,
) -> Corpus:
    """Load, filter, sort, and join posts with optional embeddings.

    Posts outside the window are dropped with a counted warning. Every
    embedding row id must resolve to a surviving post.
    """
    window = window or StudyWindow()
    posts = read_posts(posts_path)
    seen: set[str] = set()
    for p in posts:
        if p.post_id in seen:
            raise CorpusError(f"duplicate post_id: {p.post_id!r}")
        seen.add(p.post_id)
    kept = [p for p in posts if window.contains(p.timestamp)]
    dropped = len(posts) - len(kept)
    if dropped:
        logger.warning("dropped %d post(s) outside the study window", dropped)
    embeddings = None
    if embeddings_path is not None:
        embeddings = read_embeddings(embeddings_path)
        by_id = {p.post_id: p for p in kept}
        for row, rid in enumerate(embeddings.row_ids):
            post = by_id.get(rid)
            if post is None:
                raise CorpusError(f"embedding row {row} references unknown post_id {rid!r}")
            post.embedding_row = row
    return Corpus(
        posts=kept,
        window=window,
        embeddings=embeddings,
        n_dropped_outside_window=dropped,
    )


def save_corpus(corpus: Corpus, out_dir) -> dict:
    """Persist a corpus bundle (posts, embeddings, window) to a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    posts_path = out / "posts.ndjson"
    write_posts(posts_path, corpus.posts)
    paths = {"posts": str(posts_path)}
    if corpus.embeddings is not None:
        emb_path = out / "embeddings.emb"
        write_embeddings(emb_path, corpus.embeddings.values, corpus.embeddings.row_ids)
        paths["embeddings"] = str(emb_path)
    window_path = out / "window.json"
    corpus.window.save(window_path)
    paths["window"] = str(window_path)
    return paths


def load_corpus_bundle(bundle_dir) -> Corpus:
    """Load a corpus bundle produced by save_corpus."""
    bundle = Path(bundle_dir)
    window = StudyWindow.load(bundle / "window.json")
    emb_path = bundle / "embeddings.emb"
    return load_corpus(
        bundle / "posts.ndjson",
        embeddings_path=emb_path if emb_path.exists() else None,
        window=window,
    )
