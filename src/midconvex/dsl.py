"""Parser and printer for the input language of the command line tool.

An input is three semicolon-separated parts: a group, a set, and a command.

    group := "Z(" int { "x" int } ")" | "Z" | "Q(gen=" rational ", primes=[" primes "])"
    set   := "{" elems "}" [ "@window[" int "," int "]" ]
           | "conv[" bound "," bound "] ∩ (" "(" rational ",[" primes "])" " + " elem ")"
    cmd   := "check" | "closure" | "trace x=" elem " g=" elem | "decompose" [ "x=" elem ]
           | "verify --theorem " (1|2|3|lemma1|purity|hull)
             [ "--max-order " int ] [ "--samples " int ] [ "--seed " int ]

Elements are integers, rationals "a/b", or tuples "(a,b,...)" for groups with
several cyclic factors; interval bounds may be "-inf" and "inf". Printing a
parsed expression and reparsing it yields an equal expression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import MidconvexError


class DslSyntaxError(MidconvexError):
    """Malformed input text, with 1-based line and column of the offence."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class DslTypeError(MidconvexError):
    """Well-formed input whose pieces do not fit together (element outside group, ...)."""


# -- abstract syntax ------------------------------------------------------

Element = int | Fraction | tuple


@dataclass(frozen=True)
class FiniteGroupExpr:
    orders: tuple[int, ...]


@dataclass(frozen=True)
class ZGroupExpr:
    pass


@dataclass(frozen=True)
class RationalGroupExpr:
    gen: Fraction
    primes: tuple[int, ...]


GroupExpr = FiniteGroupExpr | ZGroupExpr | RationalGroupExpr


@dataclass(frozen=True)
class ExplicitSetExpr:
    elements: tuple
    window: tuple[int, int] | None = None


@dataclass(frozen=True)
class DescribedSetExpr:
    lower: Fraction | None
    upper: Fraction | None
    sub_gen: Fraction
    sub_primes: tuple[int, ...]
    base: Fraction


SetExpr = ExplicitSetExpr | DescribedSetExpr


@dataclass(frozen=True)
class CheckCmd:
    pass


@dataclass(frozen=True)
class ClosureCmd:
    pass


@dataclass(frozen=True)
class TraceCmd:
    x: Element
    g: Element


@dataclass(frozen=True)
class DecomposeCmd:
    x: Element | None = None


@dataclass(frozen=True)
class VerifyCmd:
    theorem: str
    max_order: int | None = None
    samples: int | None = None
    seed: int | None = None


Command = CheckCmd | ClosureCmd | TraceCmd | DecomposeCmd | VerifyCmd


@dataclass(frozen=True)
class Program:
    group: GroupExpr
    set_expr: SetExpr
    command: Command


# -- lexer ----------------------------------------------------------------

_TOKEN_RE = re.compile(
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


def _syntax_error(text: str, offset: int, message: str) -> DslSyntaxError:
    """The error at this offset of the text, with its line and column counted from 1."""
    line = text.count("\n", 0, offset) + 1
    return DslSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token, ending in an empty "eof" token.

    Every character is matched by some alternative, so the scan is one pass.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise _syntax_error(text, m.start(), f"unexpected character {m.group()!r}")
        if kind != "ws":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def error(self, message: str) -> DslSyntaxError:
        _, shown, offset = self.tokens[self.pos]
        return _syntax_error(self.text, offset, f"{message} (found {shown or 'end of input'!r})")

    def accept(self, kind: str, text: str | None = None) -> str | None:
        """The text of the current token, consumed, if it is of this kind (and text)."""
        tok_kind, tok_text, _ = self.tokens[self.pos]
        if tok_kind == kind and (text is None or tok_text == text):
            self.pos += 1
            return tok_text
        return None

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> str:
        tok_text = self.accept(kind, text)
        if tok_text is None:
            raise self.error(f"expected {what or text or kind}")
        return tok_text

    # -- grammar rules --------------------------------------------------

    def parse_program(self) -> Program:
        group = self.parse_group()
        self.expect("sym", ";", "';' after the group")
        set_expr = self.parse_set()
        self.expect("sym", ";", "';' after the set")
        command = self.parse_command()
        self.expect("eof", what="end of input")
        return Program(group, set_expr, command)

    def parse_group(self) -> GroupExpr:
        if self.accept("ident", "Z"):
            if not self.accept("sym", "("):
                return ZGroupExpr()
            orders = [self.parse_int("cyclic factor order")]
            while self.accept("cross"):
                orders.append(self.parse_int("cyclic factor order"))
            self.expect("sym", ")", "')' closing the factor list")
            return FiniteGroupExpr(tuple(orders))
        if self.accept("ident", "Q"):
            self.expect("sym", "(", "'(' after Q")
            self.expect("ident", "gen", "'gen='")
            self.expect("sym", "=", "'=' after gen")
            gen = self.parse_rational("generator")
            self.expect("sym", ",", "',' between gen and primes")
            self.expect("ident", "primes", "'primes=[...]'")
            self.expect("sym", "=", "'=' after primes")
            primes = self.parse_prime_list()
            self.expect("sym", ")", "')' closing the group")
            return RationalGroupExpr(gen, primes)
        raise self.error("expected a group: Z(...), Z, or Q(gen=..., primes=[...])")

    def parse_prime_list(self) -> tuple[int, ...]:
        self.expect("sym", "[", "'['")
        primes = []
        if not self.accept("sym", "]"):
            primes.append(self.parse_int("prime"))
            while self.accept("sym", ","):
                primes.append(self.parse_int("prime"))
            self.expect("sym", "]", "']' closing the prime list")
        return tuple(primes)

    def parse_set(self) -> SetExpr:
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
        if self.accept("ident", "conv"):
            self.expect("sym", "[", "'[' after conv")
            lower = self.parse_bound(lower=True)
            self.expect("sym", ",", "','")
            upper = self.parse_bound(lower=False)
            self.expect("sym", "]", "']'")
            if lower is not None and upper is not None and lower > upper:
                raise self.error("interval lower bound exceeds upper bound")
            if not (self.accept("sym", "∩") or self.accept("sym", "&")):
                raise self.error("expected '∩' after the interval")
            self.expect("sym", "(", "'('")
            self.expect("sym", "(", "'(' starting the subgroup")
            gen = self.parse_rational("subgroup generator")
            self.expect("sym", ",", "',' before the prime list")
            primes = self.parse_prime_list()
            self.expect("sym", ")", "')' closing the subgroup")
            self.expect("sym", "+", "'+' before the base point")
            base = self.parse_rational("base point")
            self.expect("sym", ")", "')'")
            return DescribedSetExpr(lower, upper, gen, primes, base)
        raise self.error("expected a set: {...} or conv[...] ∩ (... + ...)")

    def parse_command(self) -> Command:
        if self.accept("ident", "check"):
            return CheckCmd()
        if self.accept("ident", "closure"):
            return ClosureCmd()
        if self.accept("ident", "trace"):
            self.expect("ident", "x", "'x='")
            self.expect("sym", "=", "'='")
            x = self.parse_element()
            self.expect("ident", "g", "'g='")
            self.expect("sym", "=", "'='")
            g = self.parse_element()
            return TraceCmd(x, g)
        if self.accept("ident", "decompose"):
            x = None
            if self.accept("ident", "x"):
                self.expect("sym", "=", "'='")
                x = self.parse_element()
            return DecomposeCmd(x)
        if self.accept("ident", "verify"):
            self.expect("flag", "--theorem", "'--theorem'")
            # each name is the text of one kind of token only: 1, 2, 3 of int, the rest of ident
            theorem = self.tokens[self.pos][1]
            if theorem not in ("1", "2", "3", "lemma1", "purity", "hull"):
                raise self.error("expected a theorem name: 1, 2, 3, lemma1, purity or hull")
            self.pos += 1
            max_order = samples = seed = None
            while (flag := self.accept("flag")) is not None:
                if flag == "--max-order":
                    max_order = self.parse_int("max order")
                elif flag == "--samples":
                    samples = self.parse_int("sample count")
                elif flag == "--seed":
                    seed = self.parse_int("seed")
                else:
                    raise self.error(f"unknown flag {flag}")
            return VerifyCmd(theorem, max_order, samples, seed)
        raise self.error("expected a command: check, closure, trace, decompose or verify")

    # -- leaves -----------------------------------------------------------

    def parse_int(self, what: str) -> int:
        return int(self.expect("int", what=what))

    def parse_number(self, what: str) -> int | Fraction:
        """An integer, or num/den when a denominator follows: an int if whole, else a Fraction."""
        num = self.parse_int(what)
        if not self.accept("sym", "/"):
            return num
        den = self.parse_int("denominator")
        if den == 0:
            raise self.error("zero denominator")
        value = Fraction(num, den)
        return value.numerator if value.denominator == 1 else value

    def parse_rational(self, what: str) -> Fraction:
        return Fraction(self.parse_number(what))

    def parse_bound(self, *, lower: bool) -> Fraction | None:
        bound = self.accept("inf")
        if bound is not None:
            if lower and bound != "-inf":
                raise self.error("a lower bound must be finite or -inf")
            if not lower and bound != "inf":
                raise self.error("an upper bound must be finite or inf")
            return None
        return self.parse_rational("interval bound")

    def parse_element(self) -> Element:
        if self.accept("sym", "("):
            parts = [self.parse_int("residue")]
            while self.accept("sym", ","):
                parts.append(self.parse_int("residue"))
            self.expect("sym", ")", "')' closing the tuple")
            return tuple(parts)
        return self.parse_number("element")


def parse(text: str) -> Program:
    """Parse one input into its (group, set, command) triple."""
    return _Parser(text).parse_program()


# -- printing ---------------------------------------------------------------


def format_element(element: Element) -> str:
    if isinstance(element, tuple):
        return "(%s)" % ",".join(str(r) for r in element)
    return str(element)


def format_group(group: GroupExpr) -> str:
    if isinstance(group, FiniteGroupExpr):
        return "Z(%s)" % "x".join(str(n) for n in group.orders)
    if isinstance(group, ZGroupExpr):
        return "Z"
    primes = ",".join(str(p) for p in group.primes)
    return f"Q(gen={group.gen}, primes=[{primes}])"


def format_set(set_expr: SetExpr) -> str:
    if isinstance(set_expr, ExplicitSetExpr):
        body = "{%s}" % ",".join(format_element(e) for e in set_expr.elements)
        if set_expr.window is not None:
            body += "@window[%d,%d]" % set_expr.window
        return body
    lo = "-inf" if set_expr.lower is None else str(set_expr.lower)
    hi = "inf" if set_expr.upper is None else str(set_expr.upper)
    primes = ",".join(str(p) for p in set_expr.sub_primes)
    return f"conv[{lo},{hi}] ∩ (({set_expr.sub_gen},[{primes}]) + {set_expr.base})"


def format_command(command: Command) -> str:
    if isinstance(command, CheckCmd):
        return "check"
    if isinstance(command, ClosureCmd):
        return "closure"
    if isinstance(command, TraceCmd):
        return f"trace x={format_element(command.x)} g={format_element(command.g)}"
    if isinstance(command, DecomposeCmd):
        if command.x is None:
            return "decompose"
        return f"decompose x={format_element(command.x)}"
    parts = [f"verify --theorem {command.theorem}"]
    if command.max_order is not None:
        parts.append(f"--max-order {command.max_order}")
    if command.samples is not None:
        parts.append(f"--samples {command.samples}")
    if command.seed is not None:
        parts.append(f"--seed {command.seed}")
    return " ".join(parts)
