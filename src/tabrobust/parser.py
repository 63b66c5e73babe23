"""Textual constraint language: tokenizer and parser.

One constraint per line, `#` comments. Grammar:

    constraint := relation | "if" relation "then" relation
    relation   := expr ("=="|"<="|"<"|">="|">") expr
    expr       := term (("+"|"-") term)*
    term       := factor (("*"|"/") factor)*
    factor     := atom ("^" atom)?
    atom       := number | feature | "log(" expr ")" | "abs(" expr ")"
                | "min(" expr {"," expr} ")" | "max(" expr {"," expr} ")"
                | "(" expr ")"

Numbers may carry a leading minus at atom position and must fit a
float. Feature references are either a declared column name or the
canonical F<k> form; both resolve to integer indices at parse time.

An expression may be at most _MAX_DEPTH levels deep. Each parenthesis
and function argument is a level, and so is each link of an operator
chain: `F0 + F1 + F2` is two levels below its own, as deep as the tree
it builds, which evaluation and gradients walk recursively.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Union

from .data import DatasetSchema
from .expressions import (
    RELATION_OPS,
    Abs,
    Add,
    Constant,
    Constraint,
    ConstraintSet,
    Feature,
    Implies,
    Log,
    Max,
    Min,
    Mul,
    NumExpr,
    Pow,
    Relation,
    SafeDiv,
    Sub,
)


class ConstraintParseError(ValueError):
    """Syntax or resolution error, carrying 1-based line/column."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>==|<=|>=|<|>|\+|-|\*|/|\^|\(|\)|,)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"if", "then", "log", "abs", "min", "max"}
_FUNCTIONS = {"log": Log, "abs": Abs}


class _Token:
    __slots__ = ("kind", "text", "column")

    def __init__(self, kind: str, text: str, column: int):
        self.kind = kind
        self.text = text
        self.column = column


def _tokenize(text: str, line: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ConstraintParseError(
                f"unexpected character {text[pos]!r}", line, pos + 1
            )
        if m.lastgroup != "ws":
            kind = m.lastgroup
            if kind == "name" and m.group() in _KEYWORDS:
                kind = "keyword"
            tokens.append(_Token(kind, m.group(), m.start() + 1))
        pos = m.end()
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


_MAX_DEPTH = 200


class _Parser:
    def __init__(self, tokens: list[_Token], schema: DatasetSchema, line: int):
        self.tokens = tokens
        self.pos = 0
        self.schema = schema
        self.line = line
        self.depth = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def error(self, message: str) -> ConstraintParseError:
        return ConstraintParseError(message, self.line, self.current.column)

    def advance(self) -> _Token:
        tok = self.current
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Union[str, None] = None) -> _Token:
        tok = self.current
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text if tok.text else "end of input"
            raise self.error(f"expected {want!r}, found {got!r}")
        return self.advance()

    def parse_constraint(self) -> Constraint:
        if self.current.kind == "keyword" and self.current.text == "if":
            self.advance()
            guard = self.parse_relation()
            self.expect("keyword", "then")
            body = self.parse_relation()
            if guard.op == "==":
                raise self.error("equality guards are not supported in implications")
            c: Constraint = Implies(guard, body)
        else:
            c = self.parse_relation()
        if self.current.kind != "end":
            raise self.error(f"unexpected trailing input {self.current.text!r}")
        return c

    def parse_relation(self) -> Relation:
        left, _ = self.parse_expr()
        tok = self.current
        if tok.kind != "op" or tok.text not in RELATION_OPS:
            got = tok.text if tok.text else "end of input"
            raise self.error(f"expected a relational operator, found {got!r}")
        self.advance()
        right, _ = self.parse_expr()
        return Relation(tok.text, left, right)

    def nest(self, depth: int) -> int:
        """`depth` levels below the expressions enclosing this one; past
        _MAX_DEPTH levels in all is an error."""
        if self.depth + depth > _MAX_DEPTH:
            raise self.error("expression nested too deeply")
        return depth

    def parse_expr(self) -> tuple[NumExpr, int]:
        """An expression and its depth: its own level, and one level for
        each link of an operator chain over the deeper of the link's two
        sides (so a chain of n terms is n - 1 levels deep)."""
        self.depth += 1
        try:
            self.nest(0)
            node, depth = self.parse_term()
            while self.current.kind == "op" and self.current.text in ("+", "-"):
                make = Add if self.advance().text == "+" else Sub
                rhs, rhs_depth = self.parse_term()
                node, depth = make(node, rhs), self.nest(max(depth, rhs_depth) + 1)
            return node, depth + 1
        finally:
            self.depth -= 1

    def parse_term(self) -> tuple[NumExpr, int]:
        node, depth = self.parse_factor()
        while self.current.kind == "op" and self.current.text in ("*", "/"):
            make = Mul if self.advance().text == "*" else SafeDiv
            rhs, rhs_depth = self.parse_factor()
            node, depth = make(node, rhs), self.nest(max(depth, rhs_depth) + 1)
        return node, depth

    def parse_factor(self) -> tuple[NumExpr, int]:
        base, depth = self.parse_atom()
        if self.current.kind == "op" and self.current.text == "^":
            self.advance()
            exponent, exponent_depth = self.parse_atom()
            return Pow(base, exponent), self.nest(max(depth, exponent_depth) + 1)
        return base, depth

    def parse_atom(self) -> tuple[NumExpr, int]:
        tok = self.current
        if tok.kind == "number" or tok.text == "-":
            # A literal, signed or not; no general unary negation in the grammar.
            if tok.text == "-":
                self.advance()
            value = float(self.expect("number").text)
            if not math.isfinite(value):
                raise ConstraintParseError("number too large for a float", self.line, tok.column)
            return Constant(-value if tok.text == "-" else value), 0
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect("op", ")")
            return inner
        if tok.kind == "keyword" and tok.text in _FUNCTIONS:
            self.advance()
            self.expect("op", "(")
            node, depth = self.parse_expr()
            self.expect("op", ")")
            return _FUNCTIONS[tok.text](node), depth
        if tok.kind == "keyword" and tok.text in ("min", "max"):
            self.advance()
            self.expect("op", "(")
            args = [self.parse_expr()]
            while self.current.kind == "op" and self.current.text == ",":
                self.advance()
                args.append(self.parse_expr())
            self.expect("op", ")")
            nodes, depths = zip(*args)
            return (Min if tok.text == "min" else Max)(nodes), max(depths)
        if tok.kind == "name":
            self.advance()
            try:
                idx = self.schema.resolve(tok.text)
            except KeyError:
                raise ConstraintParseError(
                    f"unknown feature name {tok.text!r}", self.line, tok.column
                ) from None
            return Feature(idx), 0
        got = tok.text if tok.text else "end of input"
        raise self.error(f"expected a value, found {got!r}")


def parse_constraint(
    text: str, schema: DatasetSchema, line: int = 1
) -> Constraint:
    """Parse a single constraint line against a schema."""
    tokens = _tokenize(text, line)
    return _Parser(tokens, schema, line).parse_constraint()


def load_constraints(
    path: Union[str, Path], schema: DatasetSchema
) -> ConstraintSet:
    """Read a constraint file: one constraint per line, `#` comments."""
    cs = ConstraintSet()
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        cs.add(parse_constraint(line, schema, line=lineno), source=line)
    return cs


def save_constraints(cs: ConstraintSet, path: Union[str, Path]) -> None:
    """Write each constraint as the line it was parsed from."""
    for i, text in enumerate(cs.source_text):
        if text is None:
            raise ValueError(f"constraint {i} has no source text to save")
    Path(path).write_text("".join(f"{text}\n" for text in cs.source_text))
