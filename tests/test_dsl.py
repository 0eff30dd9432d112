"""Input language: parsing, printing, round trips, and error positions."""

import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from midconvex import dsl
from midconvex.dsl import (
    CheckCmd,
    DecomposeCmd,
    DescribedSetExpr,
    DslSyntaxError,
    ExplicitSetExpr,
    FiniteGroupExpr,
    Program,
    RationalGroupExpr,
    TraceCmd,
    VerifyCmd,
    ZGroupExpr,
    format_command,
    format_group,
    format_set,
    parse,
)


def test_parse_finite_group_check():
    program = parse("Z(15); {1,4,7,10,13}; check")
    assert program.group == FiniteGroupExpr((15,))
    assert program.set_expr == ExplicitSetExpr((1, 4, 7, 10, 13), None)
    assert program.command == CheckCmd()


def test_parse_rational_description_check():
    program = parse("Q(gen=1, primes=[2]); conv[0,1] ∩ ((1,[2]) + 0); check")
    assert program.group == RationalGroupExpr(F(1), (2,))
    assert program.set_expr == DescribedSetExpr(F(0), F(1), F(1), (2,), F(0))
    assert program.command == CheckCmd()


def test_parse_windowed_decompose():
    program = parse("Z; {0,3,6,9}@window[0,9]; decompose x=0")
    assert program.group == ZGroupExpr()
    assert program.set_expr == ExplicitSetExpr((0, 3, 6, 9), (0, 9))
    assert program.command == DecomposeCmd(0)


def test_parse_direct_product_and_tuples():
    program = parse("Z(2x3x5); {(0,0,0),(1,2,4)}; trace x=(0,0,0) g=(1,1,1)")
    assert program.group == FiniteGroupExpr((2, 3, 5))
    assert program.set_expr.elements == ((0, 0, 0), (1, 2, 4))
    assert program.command == TraceCmd((0, 0, 0), (1, 1, 1))


def test_parse_verify_flags():
    program = parse("Z; {0}@window[0,0]; verify --theorem 2 --max-order 12 --seed 5")
    assert program.command == VerifyCmd("2", 12, None, 5)
    program = parse("Z; {0}@window[0,0]; verify --theorem lemma1")
    assert program.command == VerifyCmd("lemma1", None, None, None)
    program = parse("Z; {0}@window[0,0]; verify --theorem hull --samples 50")
    assert program.command == VerifyCmd("hull", None, 50, None)


def test_parse_rationals_negatives_and_infinities():
    program = parse("Q(gen=3/2, primes=[2,3]); conv[-inf,5/2] ∩ ((9/4,[3]) + -3/2); check")
    assert program.group == RationalGroupExpr(F(3, 2), (2, 3))
    assert program.set_expr == DescribedSetExpr(None, F(5, 2), F(9, 4), (3,), F(-3, 2))


def test_ascii_intersection_alias():
    a = parse("Q(gen=1, primes=[]); conv[0,1] & ((1,[]) + 0); check")
    b = parse("Q(gen=1, primes=[]); conv[0,1] ∩ ((1,[]) + 0); check")
    assert a == b


def test_parse_empty_set_and_bare_decompose():
    program = parse("Z(5); {}; check")
    assert program.set_expr == ExplicitSetExpr((), None)
    assert parse("Z(5); {0}; decompose").command == DecomposeCmd(None)


def format_program(program):
    """The statement printed back as text, its three parts joined by "; "."""
    return "; ".join((format_group(program.group), format_set(program.set_expr), format_command(program.command)))


@pytest.mark.parametrize(
    "text",
    [
        "Z(15); {1,4,7,10,13}; check",
        "Z(2x3); {(0,0),(1,2)}; closure",
        "Z; {0,3,6,9}@window[0,9]; decompose x=0",
        "Z; {-4,0,4}@window[-5,5]; trace x=0 g=2",
        "Q(gen=1, primes=[2]); conv[0,1] ∩ ((1,[2]) + 0); check",
        "Q(gen=3/2, primes=[2,3]); conv[-inf,inf] ∩ ((3,[2]) + 3/2); decompose x=3/2",
        "Q(gen=1, primes=[]); {0,1/1}; verify --theorem hull --samples 10 --seed 2",
        "Z; {0}@window[0,0]; verify --theorem 2 --max-order 12",
        "Z(7); {1}; verify --theorem purity --samples 20 --seed 1",
    ],
)
def test_print_parse_round_trip(text):
    program = parse(text)
    printed = format_program(program)
    assert parse(printed) == program
    # printing is idempotent through a second round trip
    assert format_program(parse(printed)) == printed


def test_syntax_error_positions():
    with pytest.raises(DslSyntaxError) as err:
        parse("Z(15) {1}; check")
    assert err.value.line == 1 and err.value.col == 7

    with pytest.raises(DslSyntaxError) as err:
        parse("Z(15);\n{1};\nverify --theorem 9")
    assert err.value.line == 3

    with pytest.raises(DslSyntaxError):
        parse("Z(15); {1}; check extra")

    with pytest.raises(DslSyntaxError) as err:
        parse("Z(15); {1}; check $")
    assert "unexpected character" in str(err.value)

    for text, message, line, col in [
        ("Z(15);\n{1};\nverify --theorem 9", "expected a theorem name", 3, 18),
        ("Z(4);\n  {0} $", "unexpected character '$'", 2, 7),
        ("Z(4); {0}; check\nextra", "expected end of input (found 'extra')", 2, 1),
        ("Z; {0}@window[0,0]; verify --theorem 2 --depth 3", "unknown flag --depth", 1, 48),
        ("Q(gen=1/0, primes=[]); {0}; check", "zero denominator (found ',')", 1, 10),
    ]:
        with pytest.raises(DslSyntaxError) as err:
            parse(text)
        assert message in str(err.value)
        assert (err.value.line, err.value.col) == (line, col)


def test_syntax_error_on_bad_bounds():
    with pytest.raises(DslSyntaxError):
        parse("Q(gen=1, primes=[]); conv[inf,0] ∩ ((1,[]) + 0); check")
    with pytest.raises(DslSyntaxError):
        parse("Q(gen=1, primes=[]); conv[0,-inf] ∩ ((1,[]) + 0); check")
    with pytest.raises(DslSyntaxError):
        parse("Q(gen=1, primes=[]); conv[3,1] ∩ ((1,[]) + 0); check")
    with pytest.raises(DslSyntaxError):
        parse("Q(gen=1/0, primes=[]); {0}; check")


def test_program_structure_is_hashable_and_comparable():
    program = parse("Z(4); {0}; check")
    assert program == Program(FiniteGroupExpr((4,)), ExplicitSetExpr((0,), None), CheckCmd())
    assert hash(program.group) == hash(FiniteGroupExpr((4,)))


# -- the lexer against its token-by-token reference ---------------------------


@dataclass(frozen=True)
class RefToken:
    kind: str
    text: str
    line: int
    col: int


def reference_tokenize(text):
    """The lexer read one match at a time, tracking line and column as it goes."""
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = dsl._TOKEN_RE.match(text, pos)
        if m is None or m.lastgroup == "bad":
            raise DslSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(RefToken(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(RefToken("eof", "", line, col))
    return tokens


STATEMENTS = [
    "Z(4); {0}; check",
    "Z(15); {1,4,7,10,13}; decompose x=1",
    "Z; {0}@window[0,0]; verify --theorem 2 --max-order 12",
    "Z; {0}@window[0,0]; verify --theorem 1 --max-order 13 --seed 7",
    "Q(gen=1, primes=[2]); conv[0,1] ∩ ((1,[2]) + 0); decompose",
    "Q(gen=1, primes=[]); {0,3,6,9}; decompose x=6",
    "Z(2x6); {(0,1),(1,3)}; closure",
    "Z(9x81); {(1,2),(4,11)}; closure",
    "Q(gen=1, primes=[2]); conv[0,2] ∩ ((1,[2]) + 0); verify --theorem 3 --samples 200 --seed 5",
    "Z; {0}@window[0,0]; verify --theorem purity --samples 20 --seed 3",
    "Z; {-4,0,4}@window[-5,5]; trace x=0 g=2",
    "Q(gen=3/2, primes=[2,3]); conv[-inf,5/2] ∩ ((9/4,[3]) + -3/2); check",
    "Q(gen=1, primes=[]); {0,1/1,4/2,-6/4}; verify --theorem hull --samples 10 --seed 2",
    "Z(3x9x27); {(0,0,0),(1,2,4),(2,4,8)}; trace x=(0,0,0) g=(1,2,4)",
    "Q(gen=1/7, primes=[5]); conv[-inf,inf] & ((5/7,[5]) + 1/7); decompose x=1/7",
    "Z(1048576); {3,5}; closure",
    "Z;\n{0}@window[0,0];\nverify --theorem lemma1",
]
PIECES = list("0123456789x-/,;(){}[]=@+∩& \n\t$#.abinfZQ") + ["inf", "--seed", "-inf", "\r\n", "é"]


def mutated(rng, text):
    """The text after one to three deletions, insertions or repeats of a slice."""
    for _ in range(rng.randint(1, 3)):
        i, j = sorted((rng.randrange(len(text) + 1), rng.randrange(len(text) + 1)))
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + rng.choice(PIECES) + text[i:]
        else:
            text = text[:i] + text[i:j] + text[i:]
    return text


def located(tokens, text):
    return [
        (kind, chunk, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))
        for kind, chunk, offset in tokens
    ]


def test_one_pass_lexer_matches_the_reference_on_mutated_statements():
    rng = random.Random(14)
    cases = STATEMENTS + [mutated(rng, rng.choice(STATEMENTS)) for _ in range(4500)]
    rejected = 0
    for text in cases:
        try:
            want = [(t.kind, t.text, t.line, t.col) for t in reference_tokenize(text)]
        except DslSyntaxError as expected:
            with pytest.raises(DslSyntaxError) as err:
                dsl._tokenize(text)
            assert (str(err.value), err.value.line, err.value.col) == (
                str(expected), expected.line, expected.col,
            ), text
            rejected += 1
            continue
        assert located(dsl._tokenize(text), text) == want, text
    # both readings are exercised: bad characters and clean token streams
    assert 200 < rejected < len(cases) - 2000


def test_parsed_fields_keep_their_types():
    # whole elements are ints; rational fields are Fractions even when whole
    program = parse("Q(gen=2, primes=[]); conv[0,4] ∩ ((2,[]) + 4/2); decompose x=4/2")
    assert type(program.group.gen) is F and type(program.set_expr.base) is F
    assert type(program.set_expr.lower) is F and type(program.command.x) is int
    program = parse("Q(gen=1, primes=[]); {0,1/1,4/2,-6/4}; check")
    assert [type(e) for e in program.set_expr.elements] == [int, int, int, F]
    assert program.set_expr.elements == (0, 1, 2, F(-3, 2))


# -- the list reader against the token-by-token grammar ------------------------

# the lexer without its list alternative, as every list was read before the reader
REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<flag>--[A-Za-z][A-Za-z0-9-]*)
    | (?P<inf>-?inf\b)
    | (?P<cross>(?<=\d)x(?=\d))
    | (?P<int>-?\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<sym>[(){}\[\],;=@+/∩&])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class ReferenceParser(dsl._Parser):
    """The grammar reading every set one element at a time, from tokens that hold no list."""

    def __init__(self, text):
        self.text = text
        self.tokens = []
        for m in REFERENCE_TOKEN_RE.finditer(text):
            if m.lastgroup == "bad":
                raise dsl._syntax_error(text, m.start(), f"unexpected character {m.group()!r}")
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), m.start()))
        self.tokens.append(("eof", "", len(text)))
        self.pos = 0

    def parse_set(self):
        if self.accept("sym", "{"):
            elements = []
            if not self.accept("sym", "}"):
                elements.append(self.parse_element())
                while self.accept("sym", ","):
                    elements.append(self.parse_element())
                self.expect("sym", "}", "'}' closing the element list")
            window = None
            if self.accept("sym", "@"):
                self.expect("ident", "window", "'window[lo,hi]'")
                self.expect("sym", "[", "'['")
                lo = self.parse_int("window lower bound")
                self.expect("sym", ",", "','")
                hi = self.parse_int("window upper bound")
                self.expect("sym", "]", "']'")
                window = (lo, hi)
            return ExplicitSetExpr(tuple(elements), window)
        return super().parse_set()


def outcome(parse_text, text):
    """The parsed program, or the syntax error's text, line and column."""
    try:
        return parse_text(text)
    except DslSyntaxError as err:
        return (str(err), err.line, err.col)


def long_statements(rng):
    """Statements around long lists: windows of 2,000 integers and 125 residue tuples."""
    members = rng.sample(range(-5000, 5000), 2000)
    window = "{%s}@window[-5000,4999]" % ",".join(map(str, members))
    cube = [(a, b, c, 0, 1) for a in range(5) for b in range(5) for c in range(5)]
    rng.shuffle(cube)
    tuples = "{%s}" % ",".join("(%s)" % ",".join(map(str, t)) for t in cube)
    spaced = "{ %s }" % " ,\r\n ".join("( %s )" % " , ".join(map(str, t)) for t in cube[:40])
    return [
        f"Z; {window}; check",
        f"Z;\n{window};\ntrace x={members[0]} g=3",
        f"Z(5x5x5x5x5); {tuples}; decompose",
        f"Z(5x5x5x5x5); {spaced}; closure",
        "Z(1024); { %s }; check" % ",\n".join(map(str, range(0, 1024, 4))),
        "Z(6); {(1),(2),(3)}; check",
        "Z(6); {(1),2,(3)}; check",
        "Z(6x6); {(1,2),(3)}; check",
        "Z(4); { }; check",
        "Z(4); {1,,2}; check",
        "Z(4); {,}; check",
        "Z(4); {1 2}; check",
        "Z(4); {1,-2,--3}; check",
        "Z(4x4); {(1,2)(3,4)}; check",
        "Z(4x4); {((1,2))}; check",
        "Z(4x4); {(1 2,3)}; check",
        "Z(4x4); {(1,2),}; check",
        "Z(4); trace {1}; check",
        "Z(4); {0}; trace x={1} g=1",
        "Z(4); {0}; verify --theorem {1}",
        "Z(4 {1}; check",
        "Z(4 {-}; check",
    ]


LIST_PIECES = [",", ",,", "(", ")", "()", "/", "1/2", "-", "--", "\n", "\r\n", " ", "{", "}", "x", "9" * 5000]


def list_mutated(rng, text):
    """The text after one to three edits inside its braces: a piece inserted, a character dropped or doubled."""
    lo, hi = text.index("{"), text.rindex("}") + 1
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(lo, min(hi, len(text)) + 1)
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + rng.choice(LIST_PIECES) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + text[i : i + 1] + text[i:]
    return text


def json_edge_statements(digit_limit):
    """Statements whose list JSON refuses, reads otherwise than the grammar, or reads around JSON whitespace.

    Each must parse, fail and echo as the grammar does.
    """
    lists = [
        "{007,1}",
        "{-0,3}",
        "{(-0,1),(2,3)}",
        "{\u0663,4}",
        "{1,\x0b2}",
        "{1,\x0c2}",
        "{1,\u30002}",
        "{((1,2))}",
        "{(),(1,2)}",
        "{()}",
        "{(5)}",
        "{1,(2)}",
        "{ }",
        "{1,%s}" % ("7" * (digit_limit + 1)),
        "{(1,%s)}" % ("7" * (digit_limit + 1)),
        "{%s}" % ("(" * 100000),
        "{(1,2)),((3,4)}",
        "{ (1 ,\t2 ) ,\r\n( 3,4 ) }",
    ]
    return [f"{group}; {text}; check" for text in lists for group in ("Z(8)", "Z(8x8)")]


def test_list_reader_parses_and_fails_as_the_grammar_does(digit_limit):
    rng = random.Random(14)
    cases = STATEMENTS + [mutated(rng, rng.choice(STATEMENTS)) for _ in range(4500)]
    rng = random.Random(23)
    long = long_statements(rng)
    cases += long + [list_mutated(rng, rng.choice(long[:5])) for _ in range(300)]
    cases += [mutated(rng, rng.choice(long[:5])) for _ in range(100)]
    cases += json_edge_statements(digit_limit)
    paths = Counter()
    for text in cases:
        want = outcome(lambda t: ReferenceParser(t).parse_program(), text)
        got = outcome(parse, text)
        assert got == want, text[:200]
        if isinstance(got, Program) and isinstance(got.set_expr, ExplicitSetExpr):
            # the echo of a read list is its text, which must be the printing of its members
            echoed = format_set(got.set_expr)
            assert echoed == format_set(want.set_expr), text[:200]
            assert echoed == format_set(ExplicitSetExpr(got.set_expr.elements, got.set_expr.window)), text[:200]
        try:
            lists = [chunk for kind, chunk, _ in dsl._tokenize(text) if kind == "list"]
        except DslSyntaxError:
            lists = []
        if not lists:
            path = "no list"
        else:
            path = "read" if dsl._read_list(lists[0][1:-1]) is not None else "handed back"
        paths[isinstance(want, Program), path] += 1
    # every path is exercised, in statements that parse and in statements that fail
    assert len(paths) == 6 and min(paths.values()) > 15, paths


def test_long_lists_are_read_without_the_per_element_grammar(monkeypatch):
    calls, joined = [], []
    element, join = dsl._Parser.parse_element, dsl._joined
    monkeypatch.setattr(dsl._Parser, "parse_element", lambda self: calls.append(1) or element(self))
    monkeypatch.setattr(dsl, "_joined", lambda elements: joined.append(elements) or join(elements))
    members = list(range(-500, 500))
    program = parse("Z; {%s}@window[-500,499]; check" % ", ".join(map(str, members)))
    assert program.set_expr.elements == tuple(members)
    # a list JSON read is echoed from its text, without the spaces
    assert format_set(program.set_expr) == "{%s}@window[-500,499]" % ",".join(map(str, members))
    cube = tuple((a, b, c) for a in range(5) for b in range(5) for c in range(-2, 3))
    program = parse("Z(5x5x5); {%s}; check" % ",\n".join("( %d,%d , %d)" % t for t in cube))
    assert program.set_expr.elements == cube
    assert format_set(program.set_expr) == "{%s}" % ",".join("(%d,%d,%d)" % t for t in cube)
    assert calls == [] and joined == []
    # -0 is read but does not print as spelled
    assert format_set(parse("Z(4); {3,-0}; check").set_expr) == "{3,0}"
    assert calls == [] and joined == [(3, 0)]
    # a list the reader hands back is read by the grammar, element by element
    assert parse("Q(gen=1, primes=[]); {1,1/2}; check").set_expr.elements == (1, F(1, 2))
    assert len(calls) == 2


def test_literals_past_the_digit_limit_are_syntax_errors(digit_limit):
    long = "9" * (digit_limit + 1)
    for text, what, col in [
        (f"Z; {{1}}@window[0,{long}]; check", "window upper bound", 17),
        (f"Q(gen=1, primes=[2]); {{1/{long}}}; check", "denominator", 26),
        (f"Z(4); {{1,\n{long},2}}; check", "element", 1),
        (f"Z(4x4); {{(1,-{long})}}; check", "residue", 13),
        (f"Z({long}); {{1}}; check", "cyclic factor order", 3),
    ]:
        with pytest.raises(DslSyntaxError) as err:
            parse(text)
        assert str(err.value).endswith(f"{what} has more than {digit_limit} digits")
        assert (err.value.line, err.value.col) == (1 if col != 1 else 2, col)
    # a literal at the limit is read
    assert parse(f"Z; {{1}}@window[0,{'9' * digit_limit}]; check").set_expr.window[1] == 10**digit_limit - 1


def test_format_set_prints_lists_as_the_language_writes_them():
    for text in [
        "{(1),(2,-3),(4,5,6)}",
        "{1,-2,3/4,(5)}",
        "{}@window[0,3]",
        "{(0,0)}",
    ]:
        program = parse(f"Z; {text}; check")
        assert format_set(program.set_expr) == text
