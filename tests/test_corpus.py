import json
import math
import re
from datetime import date, datetime, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import POST_FIELDS, read_posts_per_line, write_posts_json

from toxtraj import corpus as corpus_mod
from toxtraj.corpus import (
    CHUNK_LINES,
    DEFAULT_DAILY_GRID,
    DEFAULT_T0,
    DEFAULT_T_END,
    CorpusError,
    EmbeddingMatrix,
    Posts,
    StudyWindow,
    load_corpus,
    load_corpus_bundle,
    normalize_toxicity,
    read_embeddings,
    read_posts,
    save_corpus,
    sidecar_path,
    window_time,
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
        window = StudyWindow()
        assert window.n_daily_grid == DEFAULT_DAILY_GRID == 194
        assert window.tau_grid().shape == (194,)

    def test_grid_formula(self):
        window = StudyWindow(t0=0, t_end=86400 * 9, n_daily_grid=10)
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
            StudyWindow(t0=100, t_end=100)

    def test_iso_parsing(self):
        window = StudyWindow(
            t0=window_time("2023-04-17T00:00:00Z"), t_end=window_time("2023-10-27T23:59:00Z")
        )
        assert window.t0 == DEFAULT_T0
        assert window.t_end == DEFAULT_T_END

    def test_n_weeks(self):
        assert StudyWindow().n_weeks == 27

    @pytest.mark.parametrize(
        "field, value",
        [("n_daily_grid", 2.5), ("n_daily_grid", 194.0), ("n_daily_grid", True), ("week_len_days", 7.0),
         ("week_len_days", False), ("t0", "1681689600"), ("t_end", 1698451140.0)],
        ids=["grid-fraction", "grid-whole-float", "grid-bool", "week-float", "week-bool", "t0-string", "t-end-float"],
    )
    def test_non_integer_field_named_with_its_file(self, tmp_path, field, value):
        # A float grid would fail later, in the trajectories stage, naming no
        # file; a bool would read as 0 or 1.
        path = tmp_path / "window.json"
        path.write_text(json.dumps({**StudyWindow().to_json(), field: value}))
        named = f"{path}: {field} must be an integer, got {value!r}"
        with pytest.raises(CorpusError, match=f"^{re.escape(named)}$"):
            StudyWindow.load(path)

    def test_numpy_integers_taken(self):
        window = StudyWindow(t0=np.int64(0), t_end=np.int64(86400 * 9), n_daily_grid=np.int32(10),
                             week_len_days=np.int64(3))
        assert window.n_weeks == 3


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
        assert sidecar_path(path).read_bytes() == "".join(f"{rid}\n" for rid in ids).encode()
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

    def test_ids_with_other_line_separators_round_trip(self, tmp_path):
        # read_posts takes each of these inside a post_id; only "\n" ends a sidecar line.
        ids = ["a\u2028b", "c\x85", "\x1cd\x1de\x1e", "f\x0bg\x0ch", "\u2029", ""]
        path = tmp_path / "emb.bin"
        write_embeddings(path, np.zeros((len(ids), 2)), ids)
        assert read_embeddings(path).row_ids == ids

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"])
    def test_id_with_line_break_rejected(self, tmp_path, brk):
        path = tmp_path / "emb.bin"
        with pytest.raises(CorpusError, match=r"^row 2: post_id 'c.*d' holds a line break"):
            write_embeddings(path, np.zeros((3, 2)), ["a", "b", f"c{brk}d"])
        assert not path.exists()

    def test_rows_of_posts_outside_window_dropped(self, tmp_path):
        posts_path = tmp_path / "posts.ndjson"
        write_lines(posts_path, make_docs() + [{"post_id": "early", "user_id": "u1", "timestamp": T0 - 1}])
        emb_path = tmp_path / "emb.bin"
        values = np.arange(8.0).reshape(4, 2)
        write_embeddings(emb_path, values, ["early", "c", "a", "b"])
        corpus = load_corpus(posts_path, embeddings_path=emb_path)
        assert corpus.n_dropped_outside_window == 1
        assert corpus.embeddings.row_ids == ["c", "a", "b"]
        np.testing.assert_array_equal(corpus.embeddings.values, values[1:])
        assert [corpus.embeddings.row_ids[row] for row in corpus.row_of_post] == corpus.posts.post_id
        save_corpus(corpus, tmp_path / "bundle")
        assert read_embeddings(tmp_path / "bundle" / "embeddings.emb").row_ids == ["c", "a", "b"]

    def test_unknown_row_named_beside_dropped_rows(self, tmp_path):
        posts_path = tmp_path / "posts.ndjson"
        write_lines(posts_path, make_docs() + [{"post_id": "early", "user_id": "u1", "timestamp": T0 - 1}])
        emb_path = tmp_path / "emb.bin"
        write_embeddings(emb_path, np.zeros((3, 2)), ["early", "a", "ghost"])
        with pytest.raises(CorpusError, match="embedding row 2 references unknown post_id 'ghost'"):
            load_corpus(posts_path, embeddings_path=emb_path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(CorpusError, match="magic"):
            read_embeddings(path)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(magic=st.binary(min_size=4, max_size=4).filter(lambda magic: magic != b"EMB1"))
    def test_any_other_magic_named(self, tmp_path, magic):
        path = tmp_path / "emb.bin"
        write_embeddings(path, np.zeros((2, 3)), ["a", "b"])
        path.write_bytes(magic + path.read_bytes()[4:])
        with pytest.raises(CorpusError, match="^" + re.escape(str(path)) + ": .*magic"):
            read_embeddings(path)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda path: path.write_bytes(path.read_bytes()[:9]), "truncated embedding header"),
            (lambda path: path.write_bytes(path.read_bytes()[:-1]), "payload is 31 bytes, expected 32"),
            (lambda path: path.write_bytes(path.read_bytes() + b"\x00"), "payload is 33 bytes, expected 32"),
            (lambda path: sidecar_path(path).unlink(), "missing embedding id sidecar"),
            (lambda path: sidecar_path(path).write_text("a\nb\nc\n"), "sidecar has 3 ids, embedding file has 4 rows"),
            (lambda path: sidecar_path(path).write_text("a\nb\nc\na\n"), "row_ids must be unique"),
        ],
        ids=["truncated-header", "payload-short", "payload-long", "no-sidecar", "id-missing", "duplicate-ids"],
    )
    def test_damaged_file_named(self, tmp_path, damage, message):
        path = tmp_path / "emb.bin"
        write_embeddings(path, np.zeros((4, 2)), ["a", "b", "c", "d"])
        damage(path)
        with pytest.raises(CorpusError, match=message):
            read_embeddings(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        values = np.array([[np.inf, 0.0]], dtype=np.float64)
        write_embeddings(path, values, ["a"])
        with pytest.raises(CorpusError, match="non-finite"):
            read_embeddings(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_file_row_and_id(self, tmp_path, bad):
        path = tmp_path / "emb.bin"
        values = np.zeros((4, 3))
        values[2, 1] = values[3, 0] = bad
        write_embeddings(path, values, ["a", "b", "c", "d"])
        with pytest.raises(CorpusError, match=r"emb\.bin: row 2 \(post_id 'c'\) holds a non-finite value"):
            read_embeddings(path)

    def test_sidecar_not_utf8_named(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embeddings(path, np.zeros((2, 2)), ["a", "b"])
        sidecar_path(path).write_bytes(b"a\n\xffb\n")
        with pytest.raises(CorpusError, match=r"emb\.bin\.ids: not valid UTF-8 at byte 2"):
            read_embeddings(path)

    def test_repeated_id_names_its_rows(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embeddings(path, np.zeros((4, 2)), ["a", "b", "c", "b"])
        with pytest.raises(CorpusError, match=r"emb\.bin: row_ids must be unique; row 3 repeats post_id 'b' of row 1$"):
            read_embeddings(path)

    def test_matrix_names_bad_row(self):
        values = np.zeros((4, 2))
        values[3, 1] = np.nan
        with pytest.raises(CorpusError, match=r"^row 3 \(post_id 'd'\) holds a non-finite value$"):
            EmbeddingMatrix(values, ["a", "b", "c", "d"])
        with pytest.raises(CorpusError, match=r"^row_ids must be unique; row 2 repeats post_id 'a' of row 0$"):
            EmbeddingMatrix(np.zeros((4, 2)), ["a", "b", "a", "b"])
        with pytest.raises(CorpusError, match="^row_ids length does not match row count$"):
            EmbeddingMatrix(values, ["a", "b", "c"])

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(0, 5), d=st.integers(0, 4), data=st.data())
    def test_cut_or_extended_file_named(self, tmp_path, n, d, data):
        # A file cut at any byte or with bytes appended, or a sidecar cut at
        # any line: the read raises a CorpusError that starts with the file's
        # path, never a numpy error, and never returns a short matrix.
        path = tmp_path / "emb.bin"
        write_embeddings(path, np.arange(n * d, dtype=np.float64).reshape(n, d), [f"p{i}" for i in range(n)])
        blob = path.read_bytes()
        damage = data.draw(st.sampled_from(["cut", "append", "sidecar"] if n else ["cut", "append"]), label="damage")
        if damage == "cut":
            path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1), label="at")])
        elif damage == "append":
            path.write_bytes(blob + data.draw(st.binary(min_size=1, max_size=9), label="extra"))
        else:
            lines = sidecar_path(path).read_text(encoding="utf-8").split("\n")[:-1]
            kept = data.draw(st.integers(0, n - 1), label="lines kept")
            sidecar_path(path).write_text("".join(line + "\n" for line in lines[:kept]), encoding="utf-8")
        with pytest.raises(CorpusError, match="^" + re.escape(str(path)) + ": "):
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

    # One line per check, in the reader's order. Each line also fails every
    # later check it can, so the message pins which check runs first.
    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"post_id": 1.5, "timestamp": "x", "text": 5, "toxicity": 101', "invalid JSON (Expecting ',' delimiter)"),
            ('[{"post_id": null, "text": 5}]', "expected a JSON object"),
            ('{"user_id": [], "timestamp": 1.5, "text": 5, "toxicity_raw": 6}', "missing required key 'post_id'"),
            ('{"post_id": 7, "user_id": true, "text": 5, "toxicity": -1}', "user_id must be a string or an integer, got True"),
            ('{"post_id": "a", "user_id": "u", "timestamp": 9223372036854775808, "text": 5, "toxicity": 101}',
             "timestamp must be a 64-bit integer, got 9223372036854775808"),
            ('{"post_id": "\\ud800", "user_id": "u", "timestamp": 1, "text": 5, "toxicity": 101}',
             "text must be a string when present"),
            ('{"post_id": "a", "user_id": "\\udc00", "timestamp": 1, "text": "\\ud800", "toxicity": 101}',
             "user_id holds a lone surrogate, which UTF-8 cannot encode"),
            ('{"post_id": "a", "user_id": "u", "timestamp": 1, "toxicity": true, "toxicity_raw": 6}',
             "toxicity must be a number in [0, 100], got True"),
            ('{"post_id": "a", "user_id": "u", "timestamp": 1, "toxicity": 30, "toxicity_raw": "3"}',
             "toxicity_raw must be an integer in 1..5, got '3'"),
            ('{"post_id": "a", "user_id": "u", "timestamp": 1, "toxicity": 30, "toxicity_raw": 0}',
             "toxicity_raw must be in 1..5, got 0"),
            ('{"post_id": "a", "user_id": "u", "timestamp": 1, "toxicity": 30, "toxicity_raw": 2}',
             "toxicity 30.0 inconsistent with toxicity_raw 2"),
        ],
        ids=["json", "object", "missing-key", "id-type", "timestamp", "text", "surrogate", "toxicity",
             "rating-type", "rating-range", "agreement"],
    )
    def test_each_check_names_its_line_in_order(self, tmp_path, line, message):
        path = tmp_path / "posts.ndjson"
        write_text_lines(path, [line])
        with pytest.raises(CorpusError, match=f"^{re.escape('line 1: ' + message)}$"):
            read_posts(path)

    def test_nesting_past_the_recursion_limit_named(self, tmp_path):
        path = tmp_path / "posts.ndjson"
        write_text_lines(path, [json.dumps(GOOD), "[" * 100_000 + "]" * 100_000, json.dumps(GOOD)])
        with pytest.raises(CorpusError, match=r"^line 2: invalid JSON \(.*recursion"):
            read_posts(path)

    def test_integer_past_the_digit_limit_named(self, tmp_path):
        path = tmp_path / "posts.ndjson"
        write_text_lines(path, [json.dumps(GOOD), '{"post_id": "b", "user_id": "u", "timestamp": ' + "9" * 5000 + "}"])
        with pytest.raises(CorpusError, match=r"^line 2: invalid JSON \(Exceeds the limit"):
            read_posts(path)


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
        write_posts_json(second, *(getattr(posts, field) for field in POST_FIELDS))
        assert first.read_bytes() == second.read_bytes()

        lines = first.read_text(encoding="utf-8").split("\n")[:-1]
        k = data.draw(st.integers(0, len(lines) - 1), label="line")
        cut = data.draw(st.integers(1, len(lines[k]) - 1), label="cut")
        lines[k] = lines[k][:cut]
        first.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(CorpusError, match=rf"^line {k + 1}: "):
            read_posts(first)

    def test_bytes_equal_json_dumps_past_one_chunk(self, tmp_path):
        n = 2 * CHUNK_LINES + 3
        raw = [i % 6 for i in range(n)]
        scores = [math.nan, 25.0, 0.0, 100.0, 1e-7, 33.33333333333333, 99.99999999999999]
        posts = Posts(
            post_id=[f"p{i}\u2028\"\\" if i % 7 == 0 else f"p{i}" for i in range(n)],
            user_id=[f"u{i % 5}" for i in range(n)],
            timestamp=[-(2**63) + i if i % 3 == 0 else T0 - 10**9 * i for i in range(n)],
            toxicity=[(r - 1) * 25.0 if r else scores[i % len(scores)] for i, r in enumerate(raw)],
            toxicity_raw=raw,
            text=[None if i % 4 else f"t\n\r\t\x00\u00e9{i}" for i in range(n)],
        )
        mine, oracle = tmp_path / "mine.ndjson", tmp_path / "oracle.ndjson"
        write_posts(mine, posts)
        write_posts_json(oracle, *(getattr(posts, field) for field in POST_FIELDS))
        assert mine.read_bytes() == oracle.read_bytes()
        assert mine.read_bytes().count(b"\n") == n


def assert_reads_as_oracle(path):
    """read_posts gives the oracle's columns bit for bit, or names its bad line."""
    columns, bad_line = read_posts_per_line(path)
    if bad_line is not None:
        with pytest.raises(CorpusError, match=rf"^line {bad_line}: "):
            read_posts(path)
        return
    posts = read_posts(path)
    assert (posts.post_id, posts.user_id, posts.text) == (columns["post_id"], columns["user_id"], columns["text"])
    assert posts.timestamp.tolist() == columns["timestamp"]
    assert posts.toxicity.tobytes() == np.array(columns["toxicity"], dtype=np.float64).tobytes()
    assert posts.toxicity_raw.tolist() == columns["toxicity_raw"]


def post_doc(i, **extra):
    return {"post_id": f"p{i}", "user_id": f"u{i % 3}", "timestamp": T0 + i, **extra}


def write_text_lines(path, lines, end="\n"):
    path.write_bytes("".join(line + end for line in lines).encode("utf-8"))


NUMBER = st.integers(-(2**64), 2**64) | st.floats(allow_nan=True, allow_infinity=True)
# One id in ten is an integer, which the reader accepts and turns to a string.
ID = st.integers(0, 9).flatmap(lambda k: st.integers(-(2**70), 2**70) if k == 0 else st.text(SPECIAL, max_size=3))
# Values of one field that a valid post may hold, and values it may not.
GOOD_VALUES = {
    "post_id": ID,
    "user_id": ID,
    "timestamp": st.integers(-(2**63), 2**63 - 1),
    "text": st.none() | TEXT,
}
BAD_VALUES = {
    "post_id": st.sampled_from([None, 1.5, True, [], {}]),
    "user_id": st.sampled_from([None, False, ["u"]]),
    "timestamp": st.sampled_from([2**63, -(2**63) - 1, 1.0, "1", True, None]),
    "text": st.sampled_from([1, [], {}, False]),
    "toxicity": NUMBER.filter(lambda v: not 0 <= v <= 100) | st.sampled_from([True, "50"]),
    "toxicity_raw": st.sampled_from([0, 6, 2.0, True, "3", -1]),
}
BLANK_LINES = st.sampled_from(["", "   ", "\t", "\u2028", "\x0c\x1c\x85"])
# Lines that hold no post: JSON of another kind, or not JSON at all.
NOT_POSTS = st.sampled_from([
    "[1, 2]", "3", '"post"', "null", "{}", "{}{}", "{", "\ufeff{}",
    '{"post_id": "s", "user_id": "u", "timestamp": 1, "x": [1', '2]}, {"post_id": "t", "user_id": "u", "timestamp": 1}',
    '{"post_id": "n", "user_id": "u", "timestamp": 1, "toxicity": NaN}',
    '{"post_id": "e", "user_id": "u", "timestamp": 1} {}', '{"post_id": "f", "user_id": "u", "timestamp": 1}]',
])


@st.composite
def post_lines(draw):
    """Mostly valid posts of every accepted shape; about one line in thirteen is bad."""
    doc = {key: draw(values) for key, values in GOOD_VALUES.items()}
    rating = draw(st.none() | st.integers(1, 5))
    score = draw(st.none() | st.floats(0.0, 100.0) | st.integers(0, 100))
    if rating is not None:
        doc["toxicity_raw"] = rating
        score = draw(st.sampled_from([None, (rating - 1) * 25.0, rating * 25 - 25]))
    doc["toxicity"] = score
    doc = {key: value for key, value in doc.items() if value is not None or draw(st.booleans())}
    flaw = draw(st.integers(0, 39))
    if flaw == 0:
        key = draw(st.sampled_from(sorted(BAD_VALUES)))
        doc[key] = draw(BAD_VALUES[key])
    elif flaw == 1:
        doc.pop(draw(st.sampled_from(["post_id", "user_id", "timestamp"])))
    elif flaw == 2:
        return draw(NOT_POSTS)
    return json.dumps(doc, ensure_ascii=draw(st.booleans()))


class TestReadPostsEquivalence:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        lines=st.lists(st.one_of(post_lines(), post_lines(), post_lines(), BLANK_LINES), max_size=24),
        ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=24, max_size=24),
        chunk=st.sampled_from([1, 2, 3, 7, CHUNK_LINES]),
    )
    def test_same_columns_or_same_line_as_per_line_oracle(self, tmp_path, lines, ends, chunk):
        path = tmp_path / "posts.ndjson"
        path.write_bytes("".join(line + end for line, end in zip(lines, ends)).encode("utf-8"))
        with mock.patch.object(corpus_mod, "CHUNK_LINES", chunk):
            assert_reads_as_oracle(path)

    def test_value_spanning_two_lines_names_the_first(self, tmp_path):
        path = tmp_path / "posts.ndjson"
        write_text_lines(path, [
            json.dumps(post_doc(0)),
            '{"post_id": "a", "user_id": "u", "timestamp": 1, "x": [1',
            '2]}, {"post_id": "b", "user_id": "u", "timestamp": 1}',
        ])
        with pytest.raises(CorpusError, match=r"^line 2: invalid JSON"):
            read_posts(path)
        assert_reads_as_oracle(path)

    @pytest.mark.parametrize("tail", [" {}", "]", ", 1", " x"])
    def test_data_after_the_object_named(self, tmp_path, tail):
        path = tmp_path / "posts.ndjson"
        write_text_lines(path, [json.dumps(post_doc(0)), json.dumps(post_doc(1)) + tail])
        with pytest.raises(CorpusError, match=r"^line 2: invalid JSON \(Extra data\)"):
            read_posts(path)

    @pytest.mark.parametrize("bad_json", [True, False])
    def test_bad_line_named_before_a_later_undecodable_byte(self, tmp_path, bad_json):
        # The bad byte lies in the same chunk but past the decoder's first block.
        lines = [json.dumps(post_doc(i, text="x" * 100)) for i in range(CHUNK_LINES - 1)]
        if bad_json:
            lines[1] = "{"
        path = tmp_path / "posts.ndjson"
        path.write_bytes("".join(line + "\n" for line in lines).encode() + b"\xff\n")
        with pytest.raises(CorpusError, match=r"^line 2: " if bad_json else r"^line 256: not valid UTF-8"):
            read_posts(path)

    @pytest.mark.parametrize("lines, bad_line", [(301, 301), (10, 5)])
    def test_undecodable_byte_names_its_line(self, tmp_path, lines, bad_line):
        # The decoder's own position counts from its current block, not from the file.
        text = [json.dumps(post_doc(i, text="x" * 150)) + "\n" for i in range(lines)]
        head = "".join(text[: bad_line - 1]).encode() + text[bad_line - 1][:40].encode()
        path = tmp_path / "posts.ndjson"
        path.write_bytes(head + b"\xff" + "".join(text[bad_line - 1 :])[40:].encode())
        with pytest.raises(CorpusError, match=rf"^line {bad_line}: not valid UTF-8 at byte {len(head)} \(invalid start byte\)$"):
            read_posts(path)

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_undecodable_byte_counts_lines_as_text_mode(self, tmp_path, end):
        path = tmp_path / "posts.ndjson"
        path.write_bytes("".join(json.dumps(post_doc(i)) + end for i in range(3)).encode() + b"\xc3(" + end.encode())
        with pytest.raises(CorpusError, match=r"^line 4: not valid UTF-8"):
            read_posts(path)
        path.write_bytes(b"{" + end.encode() + b"\xc3(")
        with pytest.raises(CorpusError, match=r"^line 1: invalid JSON"):
            read_posts(path)

    def test_utf8_bom_named(self, tmp_path):
        path = tmp_path / "posts.ndjson"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(post_doc(0)).encode() + b"\n")
        with pytest.raises(CorpusError, match=r"^line 1: invalid JSON \(Unexpected UTF-8 BOM"):
            read_posts(path)
        assert_reads_as_oracle(path)

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_bare_cr_end_lines(self, tmp_path, end):
        path = tmp_path / "posts.ndjson"
        write_text_lines(path, [json.dumps(post_doc(i)) for i in range(3)], end=end)
        assert read_posts(path).post_id == ["p0", "p1", "p2"]
        write_text_lines(path, [json.dumps(post_doc(i)) for i in range(3)] + ["{"], end=end)
        with pytest.raises(CorpusError, match=r"^line 4: "):
            read_posts(path)
        assert_reads_as_oracle(path)

    def test_whitespace_only_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "posts.ndjson"
        write_text_lines(path, [json.dumps(post_doc(0)), "  \t", "\u2028", "\x0c\x1c\x85\u00a0", json.dumps(post_doc(1)), "[]"])
        with pytest.raises(CorpusError, match=r"^line 6: expected a JSON object"):
            read_posts(path)
        write_text_lines(path, [json.dumps(post_doc(0)), "  \t", "\u2028", json.dumps(post_doc(1))])
        assert read_posts(path).post_id == ["p0", "p1"]

    def test_raw_line_separator_in_text(self, tmp_path):
        path = tmp_path / "posts.ndjson"
        lines = [json.dumps(post_doc(i, text=f"a\u2028b\u2029c\x85{i}"), ensure_ascii=False) for i in range(3)]
        write_text_lines(path, lines + ['{"post_id": 1.5, "user_id": "u", "timestamp": 1}'])
        with pytest.raises(CorpusError, match=r"^line 4: "):
            read_posts(path)
        write_text_lines(path, lines)
        assert read_posts(path).text == [f"a\u2028b\u2029c\x85{i}" for i in range(3)]
        assert_reads_as_oracle(path)

    @pytest.mark.parametrize("bad_index", [0, CHUNK_LINES - 1, CHUNK_LINES, 2 * CHUNK_LINES - 1])
    @pytest.mark.parametrize("bad", ['{"post_id": "x"', '{"post_id": "x", "user_id": "u", "timestamp": 1, "toxicity": 101}'])
    def test_bad_line_at_chunk_edges(self, tmp_path, bad_index, bad):
        lines = [json.dumps(post_doc(i, toxicity=float(i % 100))) for i in range(2 * CHUNK_LINES)]
        lines[bad_index] = bad
        path = tmp_path / "posts.ndjson"
        write_text_lines(path, lines)
        with pytest.raises(CorpusError, match=rf"^line {bad_index + 1}: "):
            read_posts(path)

    @pytest.mark.parametrize("n", [CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1, 2 * CHUNK_LINES])
    def test_files_around_the_chunk_size(self, tmp_path, n):
        path = tmp_path / "posts.ndjson"
        write_text_lines(path, [json.dumps(post_doc(i, toxicity_raw=1 + i % 5)) for i in range(n)])
        posts = read_posts(path)
        assert posts.post_id == [f"p{i}" for i in range(n)]
        assert_reads_as_oracle(path)

    @pytest.mark.parametrize("score_line, json_line", [(3, 5), (5, 3)])
    def test_earlier_of_bad_score_and_bad_json_wins(self, tmp_path, score_line, json_line):
        lines = [json.dumps(post_doc(i)) for i in range(8)]
        lines[score_line - 1] = json.dumps(post_doc(score_line, toxicity=150.0))
        lines[json_line - 1] = '{"post_id": '
        path = tmp_path / "posts.ndjson"
        write_text_lines(path, lines)
        with pytest.raises(CorpusError, match=rf"^line {min(score_line, json_line)}: "):
            read_posts(path)

    @pytest.mark.parametrize("key", ["text", "post_id", "user_id"])
    @pytest.mark.parametrize("escape", ["\\ud800", "\\udc00", "\\uDBFF", "\\ude00\\ud83d"])
    @pytest.mark.parametrize("bad_index", [0, CHUNK_LINES, 2 * CHUNK_LINES - 1])
    def test_lone_surrogate_named(self, tmp_path, key, escape, bad_index):
        lines = [json.dumps(post_doc(i, text="t")) for i in range(2 * CHUNK_LINES)]
        doc = post_doc(bad_index, text="t")
        doc[key] = "x@y"
        lines[bad_index] = json.dumps(doc).replace("@", escape)
        path = tmp_path / "posts.ndjson"
        write_text_lines(path, lines)
        with pytest.raises(CorpusError, match=rf"^line {bad_index + 1}: {key} holds a lone surrogate"):
            read_posts(path)
        assert_reads_as_oracle(path)

    @pytest.mark.parametrize("key", ["text", "post_id", "user_id"])
    def test_escaped_surrogate_pair_and_escaped_backslash_accepted(self, tmp_path, key):
        lines = [json.dumps(post_doc(i, text="t")) for i in range(CHUNK_LINES + 1)]
        for i, value in ((0, "\U0001F600"), (CHUNK_LINES, "\\ud800")):
            doc = post_doc(i, text="t")
            doc[key] = value
            lines[i] = json.dumps(doc)
        path = tmp_path / "posts.ndjson"
        write_text_lines(path, lines)
        assert "\\ud83d\\ude00" in lines[0] and "\\\\ud800" in lines[CHUNK_LINES]
        posts = read_posts(path)
        assert getattr(posts, key)[0] == "\U0001F600"
        assert getattr(posts, key)[CHUNK_LINES] == "\\ud800"
        assert_reads_as_oracle(path)
