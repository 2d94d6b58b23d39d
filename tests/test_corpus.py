import json
import math
from datetime import date, datetime, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toxtraj.corpus import (
    DEFAULT_DAILY_GRID,
    DEFAULT_T0,
    DEFAULT_T_END,
    CorpusError,
    Posts,
    StudyWindow,
    load_corpus,
    load_corpus_bundle,
    normalize_toxicity,
    read_embeddings,
    read_posts,
    save_corpus,
    study_window,
    write_embeddings,
    write_posts,
)

T0 = DEFAULT_T0


def write_lines(path, docs):
    with open(path, "w") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")


def make_docs():
    return [
        {"post_id": "c", "user_id": "u2", "timestamp": T0 + 50},
        {"post_id": "a", "user_id": "u1", "timestamp": T0 + 100, "toxicity_raw": 3},
        {"post_id": "b", "user_id": "u1", "timestamp": T0 + 10, "text": "hello"},
    ]


class TestNormalizeToxicity:
    def test_endpoints_and_midpoint(self):
        assert normalize_toxicity(1) == 0.0
        assert normalize_toxicity(5) == 100.0
        assert normalize_toxicity(3) == 50.0

    def test_affine_steps(self):
        values = [normalize_toxicity(r) for r in range(1, 6)]
        assert values == sorted(values)
        for lo, hi in zip(values, values[1:]):
            assert hi - lo == 25.0

    @pytest.mark.parametrize("bad", [0, 6, -1, 100])
    def test_out_of_range(self, bad):
        with pytest.raises(CorpusError):
            normalize_toxicity(bad)


class TestStudyWindow:
    def test_defaults(self):
        window = study_window()
        assert window.n_daily_grid == DEFAULT_DAILY_GRID == 194
        assert window.tau_grid().shape == (194,)

    def test_grid_formula(self):
        window = study_window(t0=0, t_end=86400 * 9, n_daily_grid=10)
        grid = window.tau_grid()
        assert np.allclose(grid, np.arange(10) / 9.0)

    def test_paper_window_spans_194_calendar_days(self):
        # Calendar oracle: count days inclusive with datetime.date arithmetic.
        start = datetime.fromtimestamp(DEFAULT_T0, tz=timezone.utc).date()
        end = datetime.fromtimestamp(DEFAULT_T_END, tz=timezone.utc).date()
        assert start == date(2023, 4, 17)
        assert end == date(2023, 10, 27)
        assert (end - start).days + 1 == 194

    def test_invalid_window(self):
        with pytest.raises(CorpusError):
            study_window(t0=100, t_end=100)

    def test_iso_parsing(self):
        window = study_window(t0="2023-04-17T00:00:00Z", t_end="2023-10-27T23:59:00Z")
        assert window.t0 == DEFAULT_T0
        assert window.t_end == DEFAULT_T_END

    def test_n_weeks(self):
        assert study_window().n_weeks == 27


class TestLoadCorpus:
    def test_sorted_by_user_then_time(self, tmp_path):
        path = tmp_path / "posts.ndjson"
        write_lines(path, make_docs())
        corpus = load_corpus(path)
        assert corpus.posts.post_id == ["b", "a", "c"]
        assert corpus.posts.toxicity[1] == 50.0

    def test_duplicate_post_id_reports_id(self, tmp_path):
        docs = make_docs() + [{"post_id": "a", "user_id": "u9", "timestamp": T0 + 1}]
        path = tmp_path / "posts.ndjson"
        write_lines(path, docs)
        with pytest.raises(CorpusError, match="'a'"):
            load_corpus(path)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "posts.ndjson"
        path.write_text('{"post_id": "a", "user_id": "u", "timestamp": 1}\nnot json\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_missing_key_line_number(self, tmp_path):
        path = tmp_path / "posts.ndjson"
        write_lines(path, [{"post_id": "a", "timestamp": T0}])
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(path)

    def test_window_filter_drops_and_counts(self, tmp_path):
        docs = make_docs() + [{"post_id": "z", "user_id": "u1", "timestamp": 5}]
        path = tmp_path / "posts.ndjson"
        write_lines(path, docs)
        corpus = load_corpus(path)
        assert corpus.n_dropped_outside_window == 1
        assert len(corpus) == 3

    def test_order_independent_of_input_permutation(self, tmp_path):
        docs = make_docs()
        p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_lines(p1, docs)
        write_lines(p2, list(reversed(docs)))
        c1, c2 = load_corpus(p1), load_corpus(p2)
        assert c1.posts.post_id == c2.posts.post_id

    def test_toxicity_field_accepted_without_raw(self, tmp_path):
        path = tmp_path / "posts.ndjson"
        write_lines(path, [{"post_id": "a", "user_id": "u", "timestamp": T0, "toxicity": 12.5}])
        corpus = load_corpus(path)
        assert corpus.posts.toxicity[0] == 12.5
        assert corpus.posts.toxicity_raw[0] == 0  # absent

    def test_inconsistent_toxicity_pair_rejected(self, tmp_path):
        path = tmp_path / "posts.ndjson"
        write_lines(
            path,
            [{"post_id": "a", "user_id": "u", "timestamp": T0, "toxicity_raw": 3, "toxicity": 10.0}],
        )
        with pytest.raises(CorpusError, match="inconsistent"):
            load_corpus(path)


class TestEmbeddings:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(7, 5)).astype(np.float32).astype(np.float64)
        ids = [f"p{i}" for i in range(7)]
        path = tmp_path / "emb.bin"
        write_embeddings(path, values, ids)
        loaded = read_embeddings(path)
        assert loaded.row_ids == ids
        assert loaded.values.dtype == np.float64
        np.testing.assert_array_equal(loaded.values, values)

    def test_permuted_row_ids_align(self, tmp_path):
        # Round-trip check: brute-force that each post points at its own row.
        rng = np.random.default_rng(1)
        docs = [
            {"post_id": f"p{i}", "user_id": f"u{i % 3}", "timestamp": T0 + i} for i in range(10)
        ]
        posts_path = tmp_path / "posts.ndjson"
        write_lines(posts_path, docs)
        perm = rng.permutation(10)
        values = rng.normal(size=(10, 4)).astype(np.float32).astype(np.float64)
        ids = [f"p{i}" for i in perm]
        emb_path = tmp_path / "emb.bin"
        write_embeddings(emb_path, values, ids)
        corpus = load_corpus(posts_path, embeddings_path=emb_path)
        for post_id, row in zip(corpus.posts.post_id, corpus.row_of_post):
            assert corpus.embeddings.row_ids[row] == post_id
            expected_row = list(perm).index(int(post_id[1:]))
            np.testing.assert_array_equal(corpus.embeddings.values[row], values[expected_row])

    def test_dangling_row_id(self, tmp_path):
        posts_path = tmp_path / "posts.ndjson"
        write_lines(posts_path, make_docs())
        emb_path = tmp_path / "emb.bin"
        write_embeddings(emb_path, np.zeros((1, 2)), ["ghost"])
        with pytest.raises(CorpusError, match="ghost"):
            load_corpus(posts_path, embeddings_path=emb_path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(CorpusError, match="magic"):
            read_embeddings(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        values = np.array([[np.inf, 0.0]], dtype=np.float64)
        write_embeddings(path, values, ["a"])
        with pytest.raises(CorpusError, match="non-finite"):
            read_embeddings(path)


class TestBundleRoundTrip:
    def test_load_save_load_identity(self, tmp_path):
        rng = np.random.default_rng(2)
        docs = [
            {
                "post_id": f"p{i}",
                "user_id": f"u{i % 4}",
                "timestamp": int(T0 + rng.integers(0, 10**6)),
                "toxicity_raw": int(rng.integers(1, 6)),
                "text": f"text {i}",
            }
            for i in range(20)
        ]
        posts_path = tmp_path / "posts.ndjson"
        write_lines(posts_path, docs)
        values = rng.normal(size=(20, 5)).astype(np.float32).astype(np.float64)
        emb_path = tmp_path / "emb.bin"
        write_embeddings(emb_path, values, [f"p{i}" for i in range(20)])
        corpus = load_corpus(posts_path, embeddings_path=emb_path)
        save_corpus(corpus, tmp_path / "bundle")
        again = load_corpus_bundle(tmp_path / "bundle")
        assert len(again) == len(corpus)
        p, q = corpus.posts, again.posts
        assert (p.post_id, p.user_id, p.timestamp.tolist(), p.text) == (
            q.post_id,
            q.user_id,
            q.timestamp.tolist(),
            q.text,
        )
        assert p.toxicity_raw.tolist() == q.toxicity_raw.tolist()
        assert p.toxicity.tolist() == q.toxicity.tolist()
        np.testing.assert_array_equal(
            corpus.embeddings.values[corpus.row_of_post],
            again.embeddings.values[again.row_of_post],
        )

    def test_synthetic_continuous_toxicity_round_trips(self, tmp_path):
        posts = Posts(post_id=["a", "b"], user_id=["u", "u"], timestamp=[T0 + 5, T0 + 9], toxicity=[37.25, 0.125])
        path = tmp_path / "posts.ndjson"
        write_posts(path, posts)
        corpus = load_corpus(path)
        assert corpus.posts.toxicity.tolist() == [37.25, 0.125]


GOOD = {"post_id": "a", "user_id": "u", "timestamp": T0}


class TestReadPostsRejects:
    @pytest.mark.parametrize(
        "bad",
        [
            {"post_id": None},
            {"user_id": None},
            {"post_id": {"id": 1}},
            {"user_id": ["u"]},
            {"post_id": 1.5},
            {"user_id": True},
            {"toxicity": "12.5"},
            {"toxicity": True},
            {"toxicity": "abc"},
            {"toxicity_raw": 3, "toxicity": "50"},
            {"timestamp": 2**63},
        ],
        ids=[
            "null-post-id", "null-user-id", "object-post-id", "list-user-id", "float-post-id",
            "bool-user-id", "string-toxicity", "bool-toxicity", "word-toxicity",
            "raw-with-string-toxicity", "timestamp-past-int64",
        ],
    )
    def test_bad_value_names_its_line(self, tmp_path, bad):
        path = tmp_path / "posts.ndjson"
        write_lines(path, [GOOD, {**GOOD, "post_id": "b", **bad}])
        with pytest.raises(CorpusError, match=r"^line 2: "):
            read_posts(path)

    def test_string_and_integer_ids_accepted(self, tmp_path):
        path = tmp_path / "posts.ndjson"
        write_lines(path, [GOOD, {"post_id": 7, "user_id": 12, "timestamp": T0}])
        posts = read_posts(path)
        assert posts.post_id == ["a", "7"]
        assert posts.user_id == ["u", "12"]


class TestCanonicalOrder:
    def test_equals_python_sort_with_nul_suffixed_ids(self, tmp_path):
        # numpy strings drop trailing NULs, so "a\x00" and "a" would tie there.
        docs = [
            {"post_id": pid, "user_id": uid, "timestamp": T0 + dt}
            for pid, uid, dt in [
                ("a\x00", "u", 5), ("a", "u", 5), ("b", "u\x00", 1), ("c", "u", 1), ("a\x00\x00", "u\x00", 1),
            ]
        ]
        path = tmp_path / "posts.ndjson"
        write_lines(path, docs)
        corpus = load_corpus(path)
        keys = list(zip(corpus.posts.user_id, corpus.posts.timestamp.tolist(), corpus.posts.post_id))
        assert keys == sorted((d["user_id"], d["timestamp"], d["post_id"]) for d in docs)
        assert corpus.users == ["u", "u\x00"]
        assert corpus.user_offset.tolist() == [0, 3]
        assert corpus.user_length.tolist() == [3, 2]
        assert corpus.segment("u\x00") == slice(3, 5)
        assert corpus.segment("nobody") == slice(0, 0)

    def test_duplicate_outside_window_still_rejected(self, tmp_path):
        docs = make_docs() + [{"post_id": "a", "user_id": "u9", "timestamp": 5}]
        path = tmp_path / "posts.ndjson"
        write_lines(path, docs)
        with pytest.raises(CorpusError, match="duplicate post_id: 'a'"):
            load_corpus(path)


# Characters that NDJSON must escape or carry through: quotes, backslashes,
# line breaks, NUL, line separators, and text outside the BMP.
SPECIAL = st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\u2028", "\u00a0", "\u00e9", "\U0001F600"])
TEXT = st.text(SPECIAL | st.characters(exclude_categories=("Cs",)), max_size=12)
# Ids share a long prefix and differ only in their last few characters.
IDS = st.lists(TEXT.map(lambda tail: "id-" + "x" * 40 + tail), min_size=1, max_size=8, unique=True)


@st.composite
def post_tables(draw):
    post_id = draw(IDS)
    n = len(post_id)
    users = draw(st.lists(TEXT.map(lambda tail: "user-" + tail), min_size=1, max_size=3))
    raw = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    scores = draw(st.lists(st.floats(0.0, 100.0) | st.none(), min_size=n, max_size=n))
    return Posts(
        post_id=post_id,
        user_id=[users[i % len(users)] for i in range(n)],
        timestamp=draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)),
        toxicity=[(r - 1) * 25.0 if r else (math.nan if s is None else s) for r, s in zip(raw, scores)],
        toxicity_raw=raw,
        text=draw(st.lists(st.none() | TEXT, min_size=n, max_size=n)),
    )


class TestNdjsonRoundTrip:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(posts=post_tables(), data=st.data())
    def test_read_write_same_bytes_and_garbled_line_named(self, tmp_path, posts, data):
        first, second = tmp_path / "first.ndjson", tmp_path / "second.ndjson"
        write_posts(first, posts)
        again = read_posts(first)
        assert (again.post_id, again.user_id, again.text) == (posts.post_id, posts.user_id, posts.text)
        np.testing.assert_array_equal(again.timestamp, posts.timestamp)
        np.testing.assert_array_equal(again.toxicity, posts.toxicity)
        np.testing.assert_array_equal(again.toxicity_raw, posts.toxicity_raw)
        write_posts(second, again)
        assert second.read_bytes() == first.read_bytes()

        lines = first.read_text(encoding="utf-8").split("\n")[:-1]
        k = data.draw(st.integers(0, len(lines) - 1), label="line")
        cut = data.draw(st.integers(1, len(lines[k]) - 1), label="cut")
        lines[k] = lines[k][:cut]
        first.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(CorpusError, match=rf"^line {k + 1}: "):
            read_posts(first)
