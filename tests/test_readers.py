"""The bulk file readers against the line-by-line parsers they fall back to.

``parse_instance`` and ``read_vector_rows`` read well-formed files in one
vectorized pass and hand anything else to ``_parse_instance_lines`` and
``_read_vector_rows_lines``.  On every input, mutated or not, the public
readers must give what the line parsers give: the same arrays, or a
StructuralError with the same text.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from naeopt import cli
from naeopt import gapgen as G
from naeopt import pipeline as P
from naeopt.core import Clause, NAEInstance
from naeopt.errors import StructuralError

_GAP = G.gen_gap_instance(12, 4, 3, seed=5)
BASES = {
    "gap instance": ("instance", P.format_instance(_GAP.instance, comment="gap instance n=12")),
    "mixed instance": ("instance", "c hand-written\np nae 6 5\n0.5 2 1 -2\n1.25 3 3 4 -5\n"
                                   "2 2 6 1\n0.001 4 1 2 3 4\n3e-05 2 -6 5\n"),
    "gap vectors": ("vectors", P.format_vectors(_GAP.vector_assignment(), _GAP.sparse_rows())),
    "dense vectors": ("vectors", "v 3 2\n1 0.6 0.8\n2 -1.0 -0.0\n3 6e-01 8.0e-1\n"),
    "mixed vectors": ("vectors", "v 3 4\n2 0.0 1.0 0.0 0.0\n3 s 1:-1 2:+1 4:+1\n"
                                 "1 s 2:+1 3:+1 4:-1\n"),
}

JUNK = ["nan", "NaN", "inf", "-inf", "1.0", "1e3", "3.", ".5", "-0", "0", "+1", "1_0",
        "-٣", "٣", "99999999999999999999999", "-18446744073709551617", "1e400",
        "1e-400", "x", "s", ":", "1:+1", "--1", "1e", "1.2.3", "", "e5", "-1", "2", "p",
        "v 3 3", "c", "p nae 6 1", "1 s 1:+1 2:+1 3:+1", "1:+11", "2s"]

_SEPARATED = re.compile(r"(\s+)")


def _mutate(text: str, kind: str, at: int, junk: str) -> str:
    parts = _SEPARATED.split(text)  # tokens at even positions, whitespace between
    tokens = len(parts) // 2 + 1
    i, j = 2 * (at % tokens), 2 * (at // 7 % tokens)
    lines = text.split("\n")
    line = at % len(lines)
    if kind == "swap":
        parts[i], parts[j] = parts[j], parts[i]
    elif kind == "delete":
        del parts[i: i + 2]
    elif kind == "replace":
        parts[i] = junk
    elif kind == "insert":
        parts[i] += " " + junk
    elif kind in ("tab", "double space") and len(parts) > 1:
        k = 2 * (at % (len(parts) // 2)) + 1
        parts[k] = "\t" if kind == "tab" else parts[k] + " "
    elif kind == "truncate":
        return text[: at % (len(text) + 1)]
    elif kind == "crlf":
        return text.replace("\n", "\r\n")
    elif kind in ("comment", "blank"):
        lines.insert(line, "c mid-file" if kind == "comment" else "")
        return "\n".join(lines)
    elif kind == "trailing":
        return text + junk
    return "".join(parts)


def _instance_outcome(parse, text):
    try:
        inst = parse(text)
    except StructuralError as err:
        return f"error: {err}"
    return (inst.num_vars, inst.clauses,
            [(l.dtype.str, l.tolist(), w.dtype.str, w.tobytes()) for l, w in inst.clause_groups])


def _vector_outcome(read, text):
    try:
        n, dim, (ids, indices, signs), dense = read(text)
    except StructuralError as err:
        return f"error: {err}"
    return (n, dim, [(a.dtype.str, a.tolist()) for a in (ids, indices, signs)],
            [(vid, row.dtype.str, row.tobytes()) for vid, row in dense.items()])


def assert_readers_agree(kind: str, text: str):
    if kind == "instance":
        want = _instance_outcome(P._parse_instance_lines, text)
        assert _instance_outcome(P.parse_instance, text) == want
    else:
        want = _vector_outcome(P._read_vector_rows_lines, text)
        assert _vector_outcome(P.read_vector_rows, text) == want


@given(st.sampled_from(sorted(BASES)),
       st.lists(st.tuples(st.sampled_from(["swap", "delete", "replace", "insert", "tab",
                                           "double space", "truncate", "crlf", "comment",
                                           "blank", "trailing"]),
                          st.integers(0, 10**6), st.sampled_from(JUNK)),
                min_size=1, max_size=3))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_mutated_files_read_the_same(base, mutations):
    kind, text = BASES[base]
    for mutation in mutations:
        text = _mutate(text, *mutation)
    assert_readers_agree(kind, text)


@pytest.mark.parametrize("base", sorted(BASES))
def test_unmutated_files_read_the_same(base):
    assert_readers_agree(*BASES[base])


@pytest.mark.parametrize("text", [
    "p nae 3 1\n1.0 2 1 -٣\n",           # int() reads non-ASCII digits
    "p nae 12 1\n1.0 2 1_0 2\n",               # and underscores: literal 10
    "p nae 3 1\n1.0 2 1_0 2\n",
    "p nae 3 1\n1_0 2 1 2\n",
    "p nae 3 1\n1.0\t2 1 2\n",
    "p nae 3 2\r\n1.0 2 1 2\r\n0.5 3 1 2 3\r\n",
    "p nae 3 2\n1.0 2 1 2\nc mid-file\n0.5 3 1 2 3\n",
    "p nae 3 1\n1.0 2 1 2\n\n",
    "p nae 3 1\n1.0 2 1 2\nxyz\n",
    "p nae 3 1\n1.0 2 1 2\n7",
    "p nae 3 1\n1.0 2 1 2 3\n",
    "p nae 3 1\n1.0 2.0 1 2\n",
    "p nae 3 1\n1.0 1e0 1 2\n",
    "p nae 3 1\n1.0 2 1 nan\n",
    "p nae 3 1\n1.0 2 1 inf\n",
    "p nae 3 1\n1.0 2 1 2.0\n",
    "p nae 3 1\n1.0 2 1 1e3\n",
    "p nae 3 1\n1.0 2 1 99999999999999999999999\n",
    "p nae 3 1\nnan 2 1 2\n",
    "p nae 3 1\n1e400 2 1 2\n",
    "p nae 3 1\n1e-400 2 1 2\n",
    "p nae 3 1\n-1.0 2 1 2\n",
    "p nae 3 1\n1.0 2 1 -1\n",
    "p nae 3 1\n1.0 2 0 1\n",
    "p nae 3 1\n1.0 1 1\n",
    "p nae 3 1\n1.0 0\n",
    "p nae 3 1\n1.0 2 +1 2\n",
    "p nae 3 1\n01.50 02 01 -02\n",
    "p nae 3 1\n1.5E2 2 1 2\n",
    "p nae 2 1\n1.0 2 1 2\np nae 2 1\n",
    "p  nae 2 1\n1.0 2 1 2\n",
    "c a\nc b\np nae 3 1\n1.0 2 1 -2",
    "p nae 3 0\n",
    "p nae 0 0",
    "p nae 3 2\n1.0 2 1 2\n",
    "1.0 2 1 2\np nae 3 1\n",
    "p nae 99999999999999999999 1\n1.0 2 1 2\n",
    "p nae 99999999999999999999 1\n1.0 2 1 9007199254740993\n",  # above 2^53: inexact as a float
    "p nae 99999999999999999999 1\n1.0 2 1 10000000000000000000\n",  # beyond int64
    "p nae 9007199254740992 1\n1.0 2 1 9007199254740993\n",
    "p nae 3 99999999999999999999\n1.0 2 1 2\n",
    *(f"p nae 3 1\n{weight} 2 1 2\n" for weight in ["1.e5", "+.5", "1e5.5"]),
    *(f"p nae 3 1\n1.0 2 1 {lit}\n" for lit in ["1-2", "1..2", ".e1", "-+1", "2.", "1E2"]),
])
def test_instance_edge_cases_read_the_same(text):
    assert_readers_agree("instance", text)


@pytest.mark.parametrize("text", [
    "v 2 3\n1 s 1:1 2:1 3:1\n2 s 1:+1 2:-1 3:+1\n",
    "v 2 3\n1 s 1:+1 2:+1 3:+1 4:+1\n2 s 1:+1 2:-1 3:+1\n",
    "v 2 3\n1 s 1:+1 2:+11 3:+1\n2 s 1:+1 2:-1 3:+1\n",
    "v 2 3\n1 s2 1:+1 2:+1 3:+1\n2 s 1:+1 2:-1 3:+1\n",
    "v 2 3\n1 s 1:1+1 2:+1 3:+1\n2 s 1:+1 2:-1 3:+1\n",
    "v 2 3\n1 s 1:+1:2 2:+1 3:+1\n2 s 1:+1 2:-1 3:+1\n",
    "v 2 3\n1 s 1:+1 2:+1 3:+٣\n2 s 1:+1 2:-1 3:+1\n",
    "v 2 3\n١ s 1:+1 2:+1 3:+1\n2 s 1:+1 2:-1 3:+1\n",
    "v 2 3\n1 s 1:+1 2:+1 3:+1\n1 s 1:+1 2:-1 3:+1\n",
    "v 2 3\n1 s 1:+1 2:+1 3:+1\n3 s 1:+1 2:-1 3:+1\n",
    "v 2 3\n1 s 1:+1 2:+1 3:+1\n2 s 1:+1 1:-1 3:+1\n",
    "v 2 3\n1 s 1:+1 2:+1 3:+1\n2 s 0:+1 2:-1 3:+1\n",
    "v 2 3\n1 s 1:+1 2:+1 3:+1\n2 s 1:+2 2:-1 3:+1\n",
    "v 2 3\n1 s 1:+1 2:+1 3:+1\n2 1:+1 2:-1 3:+1\n",
    "v 2 3\n1\ts 1:+1 2:+1 3:+1\n2 s 1:+1 2:-1 3:+1\n",
    "v 2 3\r\n1 s 1:+1 2:+1 3:+1\r\n2 s 1:+1 2:-1 3:+1\r\n",
    "v 2 3\n1 s 1:+1 2:+1 3:+1\nc mid-file\n2 s 1:+1 2:-1 3:+1\n",
    "v 2 3\n1 s 1:+1 2:+1 3:+1\n2 s 1:+1 2:-1 3:+1\ngarbage",
    "v 2 3\n1 s 1:+1 2:+1 3:+1\n2 s 1:+1 2:-1 3:+1",
    "v 2 3\n1 s 1:+1 2:+1 3:+1\n1_0 s 1:+1 2:-1 3:+1\n",
    "v 2 3\n1 s 1:+1 2:+1 3:+1\n2 s 1:+1 2:-1 3:-01\n",
    "v 2 3\n1 s 1:+1 2:+1 3:+1\n002 s 01:+1 2:-1 3:+1\n",
    "v 2 2\n1 0.6 0.8\n2 nan 1\n",
    "v 2 2\n1 0.6 0.8\n2 inf 1e400\n",
    "v 2 2\n1 0.6 0.8\n2.0 1 0\n",
    "v 2 2\n1 0.6 0.8\n2 1 0 0\n",
    "v 2 2\n1 0.6 0.8\n2 1_0 0\n",
    "v 2 2\n1 0.6 0.8\n-2 1 0\n",
    "v 2 2\n1 .6 8e-1\n2 -0.0 -1\n",
    "v 2 3\n1 s 1:+1 2:+1 3:+1\n2 1.0 0.0 0.0\n",
    "v 0 2\n",
    "v 1 2\nv 1 2\n1 1.0 0.0\n",
    "c x\nv 1 3\n1 s 1:-1 2:+1 3:+1\n",
    "v 99999999999999999999 3\n1 s 1:+1 2:+1 3:+1\n",
    "v 1 99999999999999999999\n1 s 1:+1 2:+1 3:+1\n",
    "v 1 99999999999999999999\n1 s 1:+1 2:+1 9007199254740993:+1\n",
    "v 1 99999999999999999999\n1 s 1:+1 2:+1 10000000000000000000:+1\n",  # beyond int64
    "v 1 3\n1 s 1:+1 2:+1 0000000000000000000003:-0000000000000000000001\n",
    "v 1 3\n1 s 1:+1 2:+1 18446744073709551619:+1\n",
    "v 1 99999999999999999999\n1 0.5 0.5\n",
])
def test_vector_edge_cases_read_the_same(text):
    assert_readers_agree("vectors", text)


def test_numpy_reads_a_token_whole_only_as_float_and_int_do():
    # the bulk instance reader rests on this: a numpy release whose text
    # reader takes a token float() or int() reads otherwise fails here by name
    for size in range(1, 6):
        for token in map("".join, itertools.product("01-+.eE", repeat=size)):
            try:
                values = np.fromstring(token, sep=" ")
            except (ValueError, DeprecationWarning):
                continue
            if values.size != 1:
                continue
            assert float(token).hex() == values[0].hex(), token  # the sign of zero too
            if not set(token) & set(".eE"):
                assert int(token) == values[0], token


class TestBulkPathCoverage:
    """The files the writers and ``naeopt gap gen`` produce must load without
    the line parsers: a silent fall back would keep every bit and lose the
    bulk readers' speed."""

    @pytest.fixture(autouse=True)
    def no_line_parsers(self, monkeypatch):
        def refuse(text):
            raise AssertionError("the line parser read a file the bulk reader should")

        monkeypatch.setattr(P, "_parse_instance_lines", refuse)
        monkeypatch.setattr(P, "_read_vector_rows_lines", refuse)

    def test_gap_gen_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["gap", "gen", "--n", "24", "--m3", "50", "--m5", "40", "--seed", "3",
                         "--out", "g"]) == 0
        inst_text = (tmp_path / "g_instance.nae").read_text()
        assert inst_text.startswith("c gap instance")
        gap = G.load_gap(inst_text, (tmp_path / "g_vectors.txt").read_text())
        assert gap.instance == G.gen_gap_instance(24, 50, 40, seed=3).instance

    def test_written_instances(self, rng):
        clauses = [Clause(float(rng.uniform(1e-9, 1e9)),
                          tuple(int(l) * int(rng.choice([-1, 1]))
                                for l in rng.choice(np.arange(1, 30), size=k, replace=False)))
                   for k in rng.integers(2, 7, size=200)]
        inst = NAEInstance(29, clauses)
        assert P.parse_instance(P.format_instance(inst, comment="two\nlines")) == inst

    def test_written_vectors(self):
        gap = G.gen_gap_instance(12, 5, 5, seed=1)
        text = P.format_vectors(gap.vector_assignment(), gap.sparse_rows())
        assert np.array_equal(P.parse_vectors(text).vectors, gap.vector_assignment().vectors)
