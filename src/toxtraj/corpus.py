"""Post corpus: a columnar post table in canonical order, joined to embeddings.

``Posts`` holds one column per field: ``post_id``, ``user_id`` and ``text``
as lists of strings (text: None where absent), ``timestamp`` as int64,
``toxicity`` as float64 on 0..100 (NaN: no score) and ``toxicity_raw`` as
int8 on 1..5 (0: absent). On disk it is NDJSON, and ``read_posts`` names the
line of any record it rejects.

``read_posts`` hands ``_post_columns``, the one definition of a valid post,
``CHUNK_LINES`` lines at a time. It parses each line on its own, so that a
line is valid exactly when ``json.loads`` of it is (one parse over many
joined lines would accept a value split across two lines), then checks the
chunk's columns at once. When a chunk fails, ``read_posts`` checks its lines
one at a time, so the error names the first bad line with that line's own
message. Only one chunk's parsed objects are alive at a time, which bounds
memory. ``write_posts`` formats each line directly, in the bytes
``json.dumps`` would give.

``Corpus`` does the work every stage shares, once: it drops posts outside the
study window, rejects duplicate post ids, sorts by (user, time, post id) so
that every sampling step downstream is deterministic, holds each user as an
``(offset, length)`` segment, and joins the embedding matrix (binary "EMB1"
plus a sidecar of post ids in row order) both ways.
"""
from __future__ import annotations

import bisect
import io
import itertools
import json
import logging
import math
import numbers
import re
import struct
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .util import JsonRecord

logger = logging.getLogger(__name__)

EMB_MAGIC = b"EMB1"

# Posts are read and written this many lines at a time. A chunk's parsed
# objects are all alive at once, so larger chunks hold more memory and give
# the cyclic garbage collector more to traverse.
CHUNK_LINES = 256

_scan_json = json.JSONDecoder().scan_once
_quote = json.encoder.encode_basestring
# json joins an escaped surrogate pair, so a surrogate left in a decoded
# string came from a lone \uD800-\uDFFF escape; UTF-8 cannot encode it.
_SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")

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


def window_time(value: int | str) -> int:
    """Unix seconds of a time given as an integer, or as a string: Unix
    seconds when all digits (the form window.json stores), else ISO-8601,
    UTC when it names no zone (a Z suffix allowed)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise CorpusError(f"a time is an integer or a string, not {value!r}")
    if isinstance(value, int) or value.strip().isdigit():
        return int(value)
    text = value.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
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
        for name in ("t0", "t_end", "n_daily_grid", "week_len_days"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise CorpusError(f"{name} must be an integer, got {value!r}")
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

    def contains(self, timestamp):
        """Whether each timestamp (an int or an array) lies in the window."""
        return (self.t0 <= timestamp) & (timestamp <= self.t_end)


@dataclass
class Posts:
    """A post table: one column per field, one entry per post."""

    post_id: list
    user_id: list
    timestamp: np.ndarray
    toxicity: Optional[np.ndarray] = None
    toxicity_raw: Optional[np.ndarray] = None
    text: Optional[list] = None

    def __post_init__(self):
        n = len(self.post_id)
        self.timestamp = np.asarray(self.timestamp, dtype=np.int64)
        self.toxicity = np.asarray(np.full(n, np.nan) if self.toxicity is None else self.toxicity, dtype=np.float64)
        self.toxicity_raw = np.asarray(np.zeros(n) if self.toxicity_raw is None else self.toxicity_raw, dtype=np.int8)
        self.text = [None] * n if self.text is None else list(self.text)
        columns = (self.user_id, self.timestamp, self.toxicity, self.toxicity_raw, self.text)
        if any(len(column) != n for column in columns):
            raise CorpusError("post columns differ in length")

    def __len__(self) -> int:
        return len(self.post_id)

    def take(self, index: Sequence[int]) -> "Posts":
        """The posts at ``index``, in that order."""
        return Posts(
            [self.post_id[i] for i in index],
            [self.user_id[i] for i in index],
            self.timestamp[index],
            self.toxicity[index],
            self.toxicity_raw[index],
            [self.text[i] for i in index],
        )


@dataclass
class EmbeddingMatrix:
    """Row-major n x d matrix aligned to posts via row_ids. A non-finite
    value or a repeated id is named by its first row and post id."""

    values: np.ndarray
    row_ids: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise CorpusError("embedding values must be a 2-D matrix")
        if len(self.row_ids) != self.values.shape[0]:
            raise CorpusError("row_ids length does not match row count")
        if not np.all(np.isfinite(self.values)):
            row = int(np.argmin(np.isfinite(self.values).all(axis=1)))
            raise CorpusError(f"row {row} (post_id {self.row_ids[row]!r}) holds a non-finite value")
        if len(set(self.row_ids)) != len(self.row_ids):
            first = {}
            row, rid = next((row, rid) for row, rid in enumerate(self.row_ids) if first.setdefault(rid, row) != row)
            raise CorpusError(f"row_ids must be unique; row {row} repeats post_id {rid!r} of row {first[rid]}")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass
class Corpus:
    """Posts in canonical order, users as segments, joined to embeddings.

    ``posts`` keeps the posts inside ``window``, sorted by (user_id,
    timestamp, post_id) in Python's order; a duplicate id among all posts is
    an error. User ``users[u]`` owns ``user_length[u]`` posts from position
    ``user_offset[u]``. ``embeddings`` keeps the rows of those posts, in
    their order; every row id must name a post. ``row_of_post`` gives a
    post's embedding row (-1: none) and ``post_of_row`` a row's post.
    """

    posts: Posts
    window: StudyWindow
    embeddings: Optional[EmbeddingMatrix] = None

    def __post_init__(self):
        posts = self.posts
        if len(set(posts.post_id)) != len(posts):
            duplicate = next(pid for pid, count in Counter(posts.post_id).items() if count > 1)
            raise CorpusError(f"duplicate post_id: {duplicate!r}")
        inside = self.window.contains(posts.timestamp)
        self.n_dropped_outside_window = int(len(posts) - inside.sum())
        if self.n_dropped_outside_window:
            logger.warning("dropped %d post(s) outside the study window", self.n_dropped_outside_window)
        # Ids are compared as Python strings, never as numpy ones, which
        # drop trailing NULs.
        user_id, timestamp, post_id = posts.user_id, posts.timestamp.tolist(), posts.post_id
        order = sorted(np.flatnonzero(inside).tolist(), key=lambda i: (user_id[i], timestamp[i], post_id[i]))
        self.posts = posts.take(order)
        runs = [(user, sum(1 for _ in run)) for user, run in itertools.groupby(self.posts.user_id)]
        self.users = [user for user, _ in runs]
        self.user_length = np.array([length for _, length in runs], dtype=np.int64)
        self.user_offset = np.cumsum(self.user_length) - self.user_length
        self.row_of_post = np.full(len(self.posts), -1, dtype=np.int64)
        self.post_of_row = np.empty(0, dtype=np.int64)
        if self.embeddings is not None:
            position = {pid: i for i, pid in enumerate(self.posts.post_id)}
            row_ids = self.embeddings.row_ids
            post_of_row = [position.get(rid, -1) for rid in row_ids]
            if -1 in post_of_row:
                # Rows of posts outside the window go with them.
                outside = set(itertools.compress(posts.post_id, ~inside))
                for row, rid in enumerate(row_ids):
                    if post_of_row[row] == -1 and rid not in outside:
                        raise CorpusError(f"embedding row {row} references unknown post_id {rid!r}")
                keep = [i != -1 for i in post_of_row]
                logger.warning("dropped %d embedding row(s) of posts outside the study window", keep.count(False))
                self.embeddings = EmbeddingMatrix(self.embeddings.values[keep], list(itertools.compress(row_ids, keep)))
                post_of_row = list(itertools.compress(post_of_row, keep))
            self.post_of_row = np.array(post_of_row, dtype=np.int64)
            self.row_of_post[self.post_of_row] = np.arange(len(post_of_row))

    def __len__(self) -> int:
        return len(self.posts)

    def segment(self, user_id: str) -> slice:
        """The positions of one user's posts; empty for a user with none."""
        u = bisect.bisect_left(self.users, user_id)
        if u == len(self.users) or self.users[u] != user_id:
            return slice(0, 0)
        start = int(self.user_offset[u])
        return slice(start, start + int(self.user_length[u]))


def _post_columns(lines: list) -> list:
    """The six ``Posts`` columns of the posts on ``lines``, blank lines
    skipped: the one definition of a valid post. Each other line is checked
    in this order:

    1. JSON: the stripped line is one value, as ``json.loads`` reads it;
    2. an object;
    3. ``post_id``, then ``user_id``: present, and a string or an integer
       (read as its decimal string);
    4. ``timestamp``: present, and an integer within int64;
    5. ``text``: absent, null or a string;
    6. no lone surrogate in an id or the text, as UTF-8 cannot encode one;
    7. ``toxicity``: absent, null or a number in [0, 100];
    8. ``toxicity_raw``: absent, null or an integer, then within 1..5;
    9. a score and a rating, both given, agree; a rating sets the toxicity.

    Each check after the first runs on all lines' values at once. The
    CorpusError raised carries the failing check's message: for one line,
    that of its first failing check."""
    docs = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            doc, end = _scan_json(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = None
        if end != len(line):
            try:
                doc = json.loads(line)  # raises, with json's own message
            except (ValueError, RecursionError) as exc:
                raise CorpusError(f"invalid JSON ({getattr(exc, 'msg', exc)})") from None
        docs.append(doc)
    if set(map(type, docs)) - {dict}:
        raise CorpusError("expected a JSON object")
    columns = []
    for key in ("post_id", "user_id", "timestamp"):
        try:
            values = [doc[key] for doc in docs]
        except KeyError:
            raise CorpusError(f"missing required key {key!r}") from None
        if key == "timestamp":
            bad = [t for t in values if type(t) is not int or not -(2**63) <= t < 2**63]
            if bad:
                raise CorpusError(f"timestamp must be a 64-bit integer, got {bad[0]!r}")
        elif set(map(type, values)) - {str}:
            bad = [v for v in values if type(v) not in (str, int)]
            if bad:
                raise CorpusError(f"{key} must be a string or an integer, got {bad[0]!r}")
            values = list(map(str, values))
        columns.append(values)
    post_id, user_id, timestamp = columns
    text = [doc.get("text") for doc in docs]
    if not set(map(type, text)) <= {str, type(None)}:
        raise CorpusError("text must be a string when present")
    # A decoded string holds a surrogate only from an escape (see _SURROGATE).
    if _SURROGATE_ESCAPE.search("".join(lines)):
        for key, values in (("post_id", post_id), ("user_id", user_id), ("text", text)):
            if any(_SURROGATE.search(value) for value in values if value is not None):
                raise CorpusError(f"{key} holds a lone surrogate, which UTF-8 cannot encode")
    score = [doc.get("toxicity") for doc in docs]
    bad = [s for s in score if s is not None and (type(s) not in (int, float) or not 0.0 <= s <= 100.0)]
    if bad:
        raise CorpusError(f"toxicity must be a number in [0, 100], got {bad[0]!r}")
    raw = [doc.get("toxicity_raw") for doc in docs]
    rated = [r for r in raw if r is not None]
    if rated:
        if not (set(map(type, rated)) <= {int} and 1 <= min(rated) and max(rated) <= 5):
            for r in rated:
                normalize_toxicity(r)  # raises the first bad rating's message
        for s, r in zip(score, raw):
            if s is not None and r is not None and not math.isclose(s, (r - 1) * 25.0, abs_tol=1e-9):
                raise CorpusError(f"toxicity {float(s)} inconsistent with toxicity_raw {r}")
    toxicity = [(r - 1) * 25.0 if r else math.nan if s is None else float(s) for s, r in zip(score, raw)]
    return [post_id, user_id, timestamp, toxicity, [r or 0 for r in raw], text]


def read_posts(path) -> Posts:
    """Parse an NDJSON posts file, in file order. A rejected post's
    CorpusError starts with "line N: ", naming the first bad line."""
    columns = [[] for _ in range(6)]
    with open(path, "r", encoding="utf-8") as fh:
        for first in itertools.count(1, CHUNK_LINES):
            lines, failure = [], None
            try:
                lines.extend(itertools.islice(fh, CHUNK_LINES))
            except UnicodeDecodeError:
                # The decoder drops the whole block that holds the bad byte. The
                # lines before the byte are checked first, as a line-by-line read would.
                before, failure = _undecodable(path)
                lines.extend(before[first - 1 + len(lines) :])
            try:
                chunk = _post_columns(lines)
            except CorpusError:
                for line_no, line in enumerate(lines, start=first):
                    try:
                        _post_columns([line])
                    except CorpusError as exc:
                        raise CorpusError(f"line {line_no}: {exc}") from None
                raise
            for column, values in zip(columns, chunk):
                column.extend(values)
            if failure is not None:
                raise failure
            if len(lines) < CHUNK_LINES:
                return Posts(*columns)


def _undecodable(path) -> tuple[list[str], CorpusError]:
    """The lines of ``path`` before its first byte that is not UTF-8, split as
    text mode splits them, and the error that names that byte's line."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The mark keeps a last, partial line when the bad byte starts one.
        *before, _ = io.StringIO(data[: exc.start].decode("utf-8") + "\ufffd", newline=None).readlines()
        return before, CorpusError(f"line {len(before) + 1}: not valid UTF-8 at byte {exc.start} ({exc.reason})")


def write_posts(path, posts: Posts) -> None:
    """One line per post, each as ``json.dumps(doc, ensure_ascii=False)``
    writes the post's fields: post_id, user_id, timestamp, text if any, then
    toxicity_raw if any, else toxicity unless NaN."""
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(posts), CHUNK_LINES):
            part = slice(start, start + CHUNK_LINES)
            lines = []
            for post_id, user_id, timestamp, text, raw, score in zip(
                posts.post_id[part], posts.user_id[part], posts.timestamp[part].tolist(),
                posts.text[part], posts.toxicity_raw[part].tolist(), posts.toxicity[part].tolist(),
            ):
                line = f'{{"post_id": {_quote(post_id)}, "user_id": {_quote(user_id)}, "timestamp": {timestamp}'
                if text is not None:
                    line += ', "text": ' + _quote(text)
                if raw:
                    line += f', "toxicity_raw": {raw}'
                elif score == score:
                    line += f', "toxicity": {score!r}'
                lines.append(line + "}\n")
            fh.write("".join(lines))


def sidecar_path(embeddings_path) -> Path:
    return Path(str(embeddings_path) + ".ids")


def read_sidecar(embeddings_path) -> list[str]:
    """The row ids in an embedding file's sidecar, one per line. Lines end at
    "\n" alone (CRLF reads as "\n"), since a post id may hold any other line
    separator, such as U+2028 or U+0085."""
    path = sidecar_path(embeddings_path)
    try:
        row_ids = path.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    if row_ids[-1] == "":
        row_ids.pop()
    return row_ids


def write_embeddings(path, values: np.ndarray, row_ids: Sequence[str]) -> None:
    """Write the EMB1 binary format (float32 LE) plus the id sidecar."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise CorpusError("embedding values must be a 2-D matrix")
    n, d = values.shape
    if len(row_ids) != n:
        raise CorpusError("row_ids length does not match row count")
    for row, rid in enumerate(row_ids):
        if "\n" in rid or "\r" in rid:
            raise CorpusError(f"row {row}: post_id {rid!r} holds a line break; the id sidecar has one id per line")
    with open(path, "wb") as fh:
        fh.write(EMB_MAGIC)
        fh.write(struct.pack("<II", n, d))
        fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes())
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        for rid in row_ids:
            fh.write(rid + "\n")


def read_embeddings(path) -> EmbeddingMatrix:
    """Read an EMB1 file; 32-bit values are promoted to 64-bit. Every error
    starts with the file's path."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != EMB_MAGIC:
            raise CorpusError(f"{path}: bad embedding file magic: {magic!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise CorpusError(f"{path}: truncated embedding header")
        n, d = struct.unpack("<II", header)
        payload = fh.read()
    expected = n * d * 4
    if len(payload) != expected:
        raise CorpusError(f"{path}: embedding payload is {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f4").reshape(n, d).astype(np.float64)
    ids_file = sidecar_path(path)
    if not ids_file.exists():
        raise CorpusError(f"{path}: missing embedding id sidecar: {ids_file}")
    row_ids = read_sidecar(path)
    if len(row_ids) != n:
        raise CorpusError(f"{path}: sidecar has {len(row_ids)} ids, embedding file has {n} rows")
    try:
        return EmbeddingMatrix(values=values, row_ids=row_ids)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None


def load_corpus(posts_path, embeddings_path=None, window: StudyWindow | None = None) -> Corpus:
    """Read posts and, if a path is given, embeddings into a ``Corpus``,
    which filters, orders and joins them."""
    posts = read_posts(posts_path)
    embeddings = None if embeddings_path is None else read_embeddings(embeddings_path)
    return Corpus(posts, window or StudyWindow(), embeddings)


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


def load_corpus_bundle(bundle_dir, embeddings_path=None) -> Corpus:
    """Load a corpus bundle produced by save_corpus, joined to the bundle's
    own embeddings if it has them. Another ``embeddings_path`` is joined in
    their place, which are then not read; its row ids must equal those of the
    bundle's id sidecar."""
    bundle = Path(bundle_dir)
    own = bundle / "embeddings.emb"
    other = embeddings_path is not None and Path(embeddings_path) != own
    if not other:
        embeddings_path = own if own.exists() else None
    corpus = load_corpus(bundle / "posts.ndjson", embeddings_path, window=StudyWindow.load(bundle / "window.json"))
    if other and (not sidecar_path(own).is_file() or corpus.embeddings.row_ids != read_sidecar(own)):
        raise CorpusError(f"{embeddings_path}: row ids differ from those of the corpus bundle {bundle}")
    return corpus
