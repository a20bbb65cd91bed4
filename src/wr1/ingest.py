"""Parsing and decomposition of polynomial ODE systems.

The accepted text format::

    # comments run to the end of the line
    species x, y;
    x' = x - x^2*y;
    y' = x^2 - x^2*y;

Coefficients are integers or rationals written ``p/q``; ``*`` between
factors is optional.  A declared species without an equation has zero
dynamics.  Monomial exponents must be nonnegative integers, since monomials
double as lattice vertices downstream.

Decomposition groups the right-hand sides by monomial: each distinct
exponent vector becomes one source vertex, paired with the aggregate
coefficient vector (its net reaction vector), so that the dynamics reads
``xdot = sum_i x^{vertex_i} * net_i``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from pathlib import Path
from typing import IO, Iterable, NamedTuple, Union

from .errors import (
    DuplicateEquationError,
    DuplicateVertexError,
    EmptySystemError,
    NegativeExponentError,
    SchemaError,
    ShapeMismatchError,
    SystemSyntaxError,
    UndeclaredSpeciesError,
    Wr1Error,
)
from .linalg import ONE, ZERO, RationalMatrix, RationalVector, monomials_at, to_fraction


@dataclass(frozen=True)
class Term:
    """One aggregated monomial: exponent vector and per-species coefficients."""

    exponents: tuple[int, ...]
    coefficients: tuple[Fraction, ...]


@dataclass(frozen=True)
class PolynomialSystem:
    """A polynomial vector field over declared species, in aggregated form.

    Term t contributes ``coefficients[s] * x^exponents`` to the derivative of
    species s.  Exponent vectors are pairwise distinct, all entries are
    nonnegative, and no term has an all-zero coefficient vector.
    """

    species: tuple[str, ...]
    terms: tuple[Term, ...]

    def __post_init__(self):
        n = len(self.species)
        if len(set(self.species)) != n:
            raise ValueError("duplicate species name")
        seen = set()
        for term in self.terms:
            if len(term.exponents) != n or len(term.coefficients) != n:
                raise ValueError("term length does not match species count")
            if any(e < 0 for e in term.exponents):
                raise ValueError("negative exponent in term")
            if term.exponents in seen:
                raise ValueError("duplicate exponent vector")
            seen.add(term.exponents)
            if all(c == 0 for c in term.coefficients):
                raise ValueError("all-zero coefficient vector survived aggregation")

    @property
    def n(self) -> int:
        return len(self.species)


@dataclass(frozen=True)
class SourceDecomposition:
    """Source vertices paired columnwise with their net reaction vectors.

    ``net_vectors`` is the n-by-m matrix whose column i belongs to
    ``vertices[i]``; vertices are distinct nonnegative integer vectors.
    """

    species: tuple[str, ...]
    vertices: tuple[tuple[int, ...], ...]
    net_vectors: RationalMatrix

    def __post_init__(self):
        n = len(self.species)
        if not self.vertices:
            raise ValueError("a decomposition needs at least one vertex")
        for vertex in self.vertices:
            if len(vertex) != n:
                raise ValueError("vertex length does not match species count")
            if any(not isinstance(e, int) or e < 0 for e in vertex):
                raise ValueError("vertices must have nonnegative integer entries")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex column")
        if self.net_vectors.rows != n or self.net_vectors.cols != len(self.vertices):
            raise ValueError("net-vector matrix shape does not match vertices")

    @property
    def n(self) -> int:
        return len(self.species)

    @property
    def m(self) -> int:
        return len(self.vertices)

    def net_vector(self, i: int) -> RationalVector:
        return self.net_vectors.column(i)

    def rhs_at(self, point: Iterable[Fraction]) -> RationalVector:
        """Evaluate ``sum_i x^{vertex_i} * net_i`` exactly.

        Runs on integers: the monomials come from
        :func:`~wr1.linalg.monomials_at` over one common denominator, each
        species' net-vector entries are scaled to the lcm of their
        denominators, and each entry becomes one reduced Fraction at the end.
        """
        values = tuple(to_fraction(v) for v in point)
        if len(values) != self.n:
            raise ValueError("dimension mismatch")
        numerators, denominator = monomials_at(values, self.vertices)
        total = []
        for row in self.net_vectors.entries:
            scale = reduce(lcm, (c.denominator for c in row), 1)
            value = sum(c.numerator * (scale // c.denominator) * num for c, num in zip(row, numerators))
            total.append(Fraction(value, denominator * scale))
        return RationalVector(tuple(total))


# ---------------------------------------------------------------------------
# text parsing


class _Token(NamedTuple):
    kind: str  # 'ident' | 'int' | 'punct' | 'eof'
    text: str
    line: int
    col: int


# whitespace and comments match the unnamed alternatives; '.' is any character but '\n'
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<ident>\w+)|(?P<punct>[,;'=+*^/-])|(?P<newline>\n)|[^\S\n]+|#.*|(?P<other>.)")


def _tokenize(text: str) -> list[_Token]:
    """Tokens and a closing 'eof'; an identifier starts with a letter or '_', an integer is decimal digits."""
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind is not None:
            value, col = match.group(), match.start() - line_start + 1
            if kind == "other" or (kind == "ident" and not (value[0].isalpha() or value[0] == "_")):
                raise SystemSyntaxError(f"unexpected character {value[0]!r}", line, col)
            tokens.append(_Token(kind, value, line, col))
    # a comment on the last line puts the end of input at its '#'
    end = text.find("#", line_start)
    tokens.append(_Token("eof", "", line, (len(text) if end < 0 else end) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def integer(self) -> int:
        token = self.advance()
        try:
            return int(token.text)
        except ValueError:
            # past Python's int-conversion digit limit
            self.fail("integer literal has too many digits", token)

    def fail(self, message: str, token: _Token | None = None):
        token = token or self.peek()
        raise SystemSyntaxError(message, token.line, token.col)

    def expect_punct(self, char: str) -> _Token:
        token = self.peek()
        if token.kind != "punct" or token.text != char:
            self.fail(f"expected {char!r}")
        return self.advance()

    def at_punct(self, char: str) -> bool:
        token = self.peek()
        return token.kind == "punct" and token.text == char

    def parse_system(self) -> PolynomialSystem:
        header = self.peek()
        if header.kind != "ident" or header.text != "species":
            self.fail("expected a 'species' declaration")
        self.advance()
        species: list[str] = []
        while True:
            name = self.peek()
            if name.kind != "ident":
                self.fail("expected a species name")
            if name.text in species:
                self.fail(f"species {name.text!r} declared twice", name)
            species.append(name.text)
            self.advance()
            if self.at_punct(","):
                self.advance()
                continue
            break
        self.expect_punct(";")

        index = {name: s for s, name in enumerate(species)}
        n = len(species)
        aggregate: dict[tuple[int, ...], list[Fraction]] = {}
        seen_lhs: set[str] = set()
        while self.peek().kind != "eof":
            lhs = self.peek()
            if lhs.kind != "ident":
                self.fail("expected a species name on the left-hand side")
            if lhs.text not in index:
                raise UndeclaredSpeciesError(f"unknown species {lhs.text!r}", lhs.line, lhs.col)
            if lhs.text in seen_lhs:
                raise DuplicateEquationError(
                    f"species {lhs.text!r} already has an equation", lhs.line, lhs.col
                )
            seen_lhs.add(lhs.text)
            self.advance()
            self.expect_punct("'")
            self.expect_punct("=")
            for coeff, exponents in self.parse_polynomial(index, n):
                bucket = aggregate.setdefault(exponents, [ZERO] * n)
                bucket[index[lhs.text]] += coeff
            self.expect_punct(";")

        terms = tuple(
            Term(exponents, tuple(coeffs))
            for exponents, coeffs in sorted(aggregate.items())
            if any(c != 0 for c in coeffs)
        )
        return PolynomialSystem(tuple(species), terms)

    def parse_polynomial(self, index: dict[str, int], n: int) -> list[tuple[Fraction, tuple[int, ...]]]:
        parts = []
        sign = ONE
        if self.at_punct("+") or self.at_punct("-"):
            if self.advance().text == "-":
                sign = -ONE
        parts.append(self.parse_term(index, n, sign))
        while self.at_punct("+") or self.at_punct("-"):
            sign = ONE if self.advance().text == "+" else -ONE
            parts.append(self.parse_term(index, n, sign))
        return parts

    def parse_term(self, index: dict[str, int], n: int, sign: Fraction) -> tuple[Fraction, tuple[int, ...]]:
        coeff: Fraction | None = None
        if self.peek().kind == "int":
            coeff = Fraction(self.integer())
            if self.at_punct("/"):
                self.advance()
                denom_token = self.peek()
                if denom_token.kind != "int":
                    self.fail("expected a denominator")
                denom = self.integer()
                if denom == 0:
                    self.fail("zero denominator", denom_token)
                coeff /= denom
            if self.at_punct("*"):
                self.advance()
                if self.peek().kind != "ident":
                    self.fail("expected a monomial after '*'")

        exponents = [0] * n
        saw_factor = False
        while self.peek().kind == "ident":
            name_token = self.advance()
            if name_token.text not in index:
                raise UndeclaredSpeciesError(
                    f"unknown species {name_token.text!r}", name_token.line, name_token.col
                )
            power = 1
            if self.at_punct("^"):
                self.advance()
                negative = False
                if self.at_punct("-"):
                    negative = True
                    self.advance()
                exp_token = self.peek()
                if exp_token.kind != "int":
                    self.fail("expected an exponent")
                power = self.integer()
                if negative:
                    raise NegativeExponentError(
                        f"negative exponent on {name_token.text!r}", exp_token.line, exp_token.col
                    )
            axis = index[name_token.text]
            exponents[axis] += power
            if exponents[axis] != power:
                # a repeated factor: a sum of in-limit literals can pass Python's
                # int-to-str digit limit, which every rendering of the vertex hits
                try:
                    str(exponents[axis])
                except ValueError:
                    self.fail("summed exponent has too many digits", name_token)
            saw_factor = True
            if self.at_punct("*"):
                self.advance()
                if self.peek().kind != "ident":
                    self.fail("expected a factor after '*'")

        if coeff is None and not saw_factor:
            self.fail("expected a term")
        if coeff is None:
            coeff = ONE
        return sign * coeff, tuple(exponents)


def parse_system(text: str) -> PolynomialSystem:
    """Parse ODE-system text; like terms are combined and zero terms dropped.

    Raises SystemSyntaxError (with line and column) on malformed input, and
    its subclasses for undeclared species, negative exponents, or duplicate
    equations.
    """
    return _Parser(text).parse_system()


def render_system(system: PolynomialSystem) -> str:
    """Print a system back to the accepted grammar (parse round-trips)."""
    lines = [f"species {', '.join(system.species)};"]
    for s, name in enumerate(system.species):
        pieces = []
        for term in sorted(system.terms, key=lambda t: t.exponents):
            coeff = term.coefficients[s]
            if coeff == 0:
                continue
            monomial = "*".join(
                sp if e == 1 else f"{sp}^{e}"
                for sp, e in zip(system.species, term.exponents)
                if e != 0
            )
            magnitude = abs(coeff)
            if not monomial:
                body = str(magnitude)
            elif magnitude == 1:
                body = monomial
            else:
                body = f"{magnitude}*{monomial}"
            pieces.append(("- " if coeff < 0 else "+ ") + body)
        if not pieces:
            expression = "0"
        else:
            expression = " ".join(pieces)
            expression = expression[2:] if expression.startswith("+ ") else "-" + expression[2:]
        lines.append(f"{name}' = {expression};")
    return "\n".join(lines) + "\n"


def decompose(system: PolynomialSystem) -> SourceDecomposition:
    """Group the field by monomial into (vertices, net vectors), columnwise.

    Columns are ordered lexicographically by exponent vector so downstream
    reports are deterministic.
    """
    if not system.terms:
        raise EmptySystemError("system has no nonzero terms")
    ordered = sorted(system.terms, key=lambda t: t.exponents)
    vertices = tuple(term.exponents for term in ordered)
    net = RationalMatrix.from_columns([term.coefficients for term in ordered], rows=system.n)
    return SourceDecomposition(system.species, vertices, net)


# ---------------------------------------------------------------------------
# structured matrix input

FileSource = Union[str, Path, IO[str]]


def read_text(source: FileSource) -> str:
    """Text of a file path or an open text stream; bytes that are not UTF-8 raise Wr1Error."""
    try:
        if hasattr(source, "read"):
            return source.read()
        return Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        name = getattr(source, "name", source)
        raise Wr1Error(f"{name}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def parse_json(text: str):
    """``json.loads`` that raises SchemaError on every document it cannot decode."""
    try:
        return json.loads(text)
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    except ValueError as exc:
        # a syntax error, or an integer literal past Python's int-conversion digit limit
        raise SchemaError(f"invalid JSON: {exc}") from exc


def load_decomposition(source: FileSource) -> SourceDecomposition:
    """Load a decomposition from JSON holding ``species``, ``Y_s``, and ``W``.

    Both matrices are row-per-species; ``W`` entries may be strings such as
    ``"-1/2"`` to stay exact.  Raises SchemaError / ShapeMismatchError /
    DuplicateVertexError on invalid documents.
    """
    doc = parse_json(read_text(source))
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value must be an object")
    missing = {"species", "Y_s", "W"} - doc.keys()
    if missing:
        raise SchemaError(f"missing keys: {sorted(missing)}")
    species = doc["species"]
    if (
        not isinstance(species, list)
        or not species
        or not all(isinstance(s, str) for s in species)
    ):
        raise SchemaError("'species' must be a nonempty list of strings")
    if len(set(species)) != len(species):
        raise SchemaError("duplicate species name")
    n = len(species)

    def matrix_rows(key: str) -> list[list]:
        rows = doc[key]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise SchemaError(f"'{key}' must be a list of rows")
        if len(rows) != n:
            raise ShapeMismatchError(f"'{key}' has {len(rows)} rows for {n} species")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ShapeMismatchError(f"'{key}' rows have unequal lengths")
        return rows

    source_rows = matrix_rows("Y_s")
    net_rows = matrix_rows("W")
    m = len(source_rows[0])
    if len(net_rows[0]) != m:
        raise ShapeMismatchError("'Y_s' and 'W' disagree on the number of columns")
    if m == 0:
        raise SchemaError("at least one vertex column is required")

    vertices = []
    for j in range(m):
        column = []
        for i in range(n):
            entry = source_rows[i][j]
            if isinstance(entry, bool) or not isinstance(entry, int) or entry < 0:
                raise SchemaError("'Y_s' entries must be nonnegative integers")
            column.append(entry)
        vertices.append(tuple(column))
    if len(set(vertices)) != len(vertices):
        raise DuplicateVertexError("'Y_s' has two identical vertex columns")

    try:
        net = RationalMatrix.from_rows(
            [[to_fraction(e) for e in row] for row in net_rows]
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"'W' entries must be exact rationals: {exc}") from exc
    return SourceDecomposition(tuple(species), tuple(vertices), net)
