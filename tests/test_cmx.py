import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connsweep import (CmxError, RandomSpec, generate_surface_matrix,
                       parse_cmx, random_connection_matrix, serialize_cmx)
from connsweep.fixtures import FIX_CB, FIX_SPHERE, FIX_ZERO

SPHERE_TEXT = """\
CMX 1
m 4
b 2
index 1 0
index 2 0
index 3 1
index 4 2
entry 1 3 1
entry 2 3 -1
"""


def test_parse_sphere():
    cm = parse_cmx(SPHERE_TEXT)
    assert cm == FIX_SPHERE
    assert len(cm.entries) == 2


def test_round_trip_fixture_matrices():
    for cm in (FIX_ZERO, FIX_SPHERE, FIX_CB):
        assert parse_cmx(serialize_cmx(cm)) == cm


def test_round_trip_random(small_corpus):
    for cm in small_corpus:
        assert parse_cmx(serialize_cmx(cm)) == cm


@st.composite
def random_matrices(draw):
    """Random matrices with b 1-4, either partition style and Fraction
    entries."""
    b = draw(st.integers(1, 4))
    values = draw(st.lists(st.fractions(-4, 4, max_denominator=6).filter(bool),
                           min_size=1, max_size=4))
    return random_connection_matrix(RandomSpec(
        seed=draw(st.integers(0, 2 ** 16)), m=draw(st.integers(b + 1, 16)), b=b,
        style=draw(st.sampled_from(("grouped", "scattered"))),
        density=draw(st.floats(0.2, 1.0)), values=tuple(values)))


@settings(max_examples=200, deadline=None)
@given(random_matrices())
def test_parse_and_serialize_are_inverse(cm):
    text = serialize_cmx(cm)
    assert parse_cmx(text) == cm
    assert serialize_cmx(parse_cmx(text)) == text


def test_serialize_is_canonical():
    text = serialize_cmx(FIX_CB)
    entry_lines = [l for l in text.splitlines() if l.startswith("entry")]
    assert entry_lines == ["entry 1 3 2", "entry 1 4 3",
                           "entry 2 3 -2", "entry 2 4 -3"]
    assert serialize_cmx(FIX_ZERO).splitlines()[-1] == "index 3 2"


def test_comments_blank_lines_and_unreduced_fractions():
    text = ("# a comment\nCMX 1\n\nm 4   # trailing\nb 2\n"
            "index 1 0\nindex 2 0\nindex 3 1\nindex 4 2\n"
            "entry 1 3 2/2\nentry 2 3 -2/2\n")
    assert parse_cmx(text) == FIX_SPHERE


def test_zero_entry_accepted_and_dropped():
    text = SPHERE_TEXT + "entry 3 4 0\n"
    assert parse_cmx(text) == FIX_SPHERE


@pytest.mark.parametrize("mutation, fragment", [
    ("entry 3 3 1", "diagonal"),
    ("entry 4 3 1", "diagonal"),
    ("entry 1 9 1", "outside 1.."),
    ("entry 1 3 5", "duplicate"),
    ("entry 1 4 1", "pattern"),
    ("entry 1 3 1/0", "denominator"),
    ("entry x 3 1", "integer"),
])
def test_entry_errors(mutation, fragment):
    with pytest.raises(CmxError) as err:
        parse_cmx(SPHERE_TEXT + mutation + "\n")
    assert fragment in str(err.value)
    assert err.value.line == 10


@pytest.mark.parametrize("line, replacement, fragment", [
    ("m 4", "m \u0664", "integer"),                          # Arabic-Indic 4
    ("index 3 1", "index \u0663 1", "integer"),               # Arabic-Indic 3
    ("entry 1 3 1", "entry 1 3 \u0667/\u0662", "rational"),  # Arabic-Indic 7/2
])
def test_non_ascii_digits_rejected(line, replacement, fragment):
    """int() reads any Unicode decimal digit; the grammar takes 0-9 only."""
    text = SPHERE_TEXT.replace(line + "\n", replacement + "\n")
    assert text != SPHERE_TEXT
    with pytest.raises(CmxError) as err:
        parse_cmx(text)
    assert fragment in str(err.value)
    assert err.value.line == SPHERE_TEXT.splitlines().index(line) + 1


def test_header_and_partition_errors():
    with pytest.raises(CmxError):
        parse_cmx("CMX 2\nm 1\nb 0\nindex 1 0\n")
    with pytest.raises(CmxError) as err:
        parse_cmx("CMX 1\nm 2\nb 0\nindex 1 0\nindex 1 0\n")
    assert "twice" in str(err.value) and err.value.line == 5
    with pytest.raises(CmxError) as err:
        parse_cmx("CMX 1\nm 2\nb 0\nindex 1 0\n")
    assert "end of input" in str(err.value)
    with pytest.raises(CmxError) as err:
        parse_cmx("CMX 1\nm 1\nb 0\nindex 1 4\n")
    assert "chain index" in str(err.value) and err.value.col == 9


def test_oversized_b_rejected_before_allocating():
    start = time.perf_counter()
    with pytest.raises(CmxError) as err:
        parse_cmx("CMX 1\nm 1\nb 200000\nindex 1 0\n")
    assert time.perf_counter() - start < 0.5
    assert "max(m, 2)" in str(err.value) and err.value.line == 3
    for m, b in ((1, 3), (5, -1), (0, 0)):
        with pytest.raises(ValueError):
            RandomSpec(seed=0, m=m, b=b)
    # one generator still takes three chain groups: a lone well
    surface = generate_surface_matrix(0, (1, 0, 0))
    assert surface.m == 1 and surface.b == 2
    assert parse_cmx(serialize_cmx(surface)) == surface


def test_oversized_m_and_b_rejected_before_allocating():
    """b up to m is legal, so nothing sized by b is built before the m
    index lines are read; a short text cannot claim a huge partition."""
    start = time.perf_counter()
    with pytest.raises(CmxError, match="unexpected end of input"):
        parse_cmx("CMX 1\nm 3000000\nb 3000000\nindex 1 0\n")
    assert time.perf_counter() - start < 0.5


def test_large_sparse_input_parses_in_little_memory():
    """Pattern membership is tested, not enumerated: one entry in a 4000 x
    4000 one-block matrix costs no 2000 x 2000 position set."""
    m = 4000
    text = (f"CMX 1\nm {m}\nb 1\n"
            + "".join(f"index {c} {int(c > m // 2)}\n" for c in range(1, m + 1))
            + f"entry 1 {m} 1\n")
    tracemalloc.start()
    try:
        cm = parse_cmx(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cm.entries == {(1, m): 1}
    assert peak < 8 * 2 ** 20


def test_parse_accepts_stream():
    import io
    assert parse_cmx(io.StringIO(SPHERE_TEXT)) == FIX_SPHERE


# hostile tokens: a zero denominator, an integer past any size guard, a
# non-ASCII digit, signs and forms the grammar does not have, and keywords
FUZZ_TOKENS = ("1/0", "0/0", "99999999999999999999", "-99999999999999999999/7",
               "\u0663", "1/\u0663", "-0", "+3", "1/-2", "1.5", "1e3", "#",
               "CMX", "m", "b", "index", "entry")


def _mutate(rng, lines):
    """One or two random edits of the text's lines: drop, duplicate or swap
    lines, or replace or insert a token (half the replacements hit a line's
    last token, an entry's value or an index's chain)."""
    lines = list(lines)
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(lines))
        edit = rng.randrange(6)
        if edit == 0 and len(lines) > 1:
            del lines[i]
        elif edit == 1:
            lines.insert(i, lines[i])
        elif edit == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split()
            k = len(tokens) - 1 if edit == 5 else rng.randrange(len(tokens) + 1)
            tokens[k:k + (edit != 4)] = [rng.choice(FUZZ_TOKENS)]
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_mutated_cmx_raises_only_cmx_error():
    """Seeded fuzzing of serialized random and surface matrices: every
    mutant parses or raises CmxError, each within a time bound."""
    rng = random.Random(15)
    texts = [serialize_cmx(random_connection_matrix(RandomSpec(
        seed=seed, m=rng.randint(2, 20), b=rng.randint(1, 3),
        style=rng.choice(("grouped", "scattered")),
        density=rng.uniform(0.3, 0.9), values=(-3, -1, 1, 2, 3))))
        for seed in range(30)]
    texts += [serialize_cmx(generate_surface_matrix(seed, sizes))
              for seed, sizes in enumerate([(2, 3, 2), (4, 6, 3), (8, 12, 6)])]
    for _ in range(4000):
        text = _mutate(rng, rng.choice(texts).splitlines())
        start = time.perf_counter()
        try:
            parse_cmx(text)
        except CmxError:
            pass
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc} on\n{text}")
        assert time.perf_counter() - start < 0.5, text
