"""Input language: parsing, printing, round trips, and error positions."""

import random
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

