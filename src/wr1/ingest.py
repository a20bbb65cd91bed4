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
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable, Union

from .errors import (
    DuplicateEquationError,
    DuplicateVertexError,
    EmptySystemError,
    NegativeExponentError,
    SchemaError,
    ShapeMismatchError,
    SystemSyntaxError,
    UndeclaredSpeciesError,
)
from .linalg import ONE, ZERO, RationalMatrix, RationalVector, to_fraction


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

    def rhs_at(self, point: Iterable[Fraction]) -> RationalVector:
        """Evaluate the vector field exactly at a positive rational point."""
        values = tuple(to_fraction(v) for v in point)
        if len(values) != self.n:
            raise ValueError("dimension mismatch")
        total = [ZERO] * self.n
        for term in self.terms:
            monomial = ONE
            for base, exp in zip(values, term.exponents):
                monomial *= base**exp
            for s, coeff in enumerate(term.coefficients):
                total[s] += coeff * monomial
        return RationalVector(tuple(total))


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
        """Evaluate ``sum_i x^{vertex_i} * net_i`` exactly."""
        values = tuple(to_fraction(v) for v in point)
        if len(values) != self.n:
            raise ValueError("dimension mismatch")
        total = [ZERO] * self.n
        for i, vertex in enumerate(self.vertices):
            monomial = ONE
            for base, exp in zip(values, vertex):
                monomial *= base**exp
            column = self.net_vectors.column(i)
            for s in range(self.n):
                total[s] += column[s] * monomial
        return RationalVector(tuple(total))


# ---------------------------------------------------------------------------
# text parsing


@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident' | 'int' | 'punct' | 'eof'
    text: str
    line: int
    col: int


_PUNCT = set(",;'=+-*^/")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            tokens.append(_Token("int", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], line, col))
            col += i - start
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, line, col))
            col += 1
            i += 1
            continue
        raise SystemSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
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
            coeff = Fraction(int(self.advance().text))
            if self.at_punct("/"):
                self.advance()
                denom_token = self.peek()
                if denom_token.kind != "int":
                    self.fail("expected a denominator")
                denom = int(self.advance().text)
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
                self.advance()
                power = int(exp_token.text)
                if negative:
                    raise NegativeExponentError(
                        f"negative exponent on {name_token.text!r}", exp_token.line, exp_token.col
                    )
            exponents[index[name_token.text]] += power
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


def _read_json(source: FileSource):
    if hasattr(source, "read"):
        raw = source.read()
    else:
        raw = Path(source).read_text(encoding="utf-8")
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def load_decomposition(source: FileSource) -> SourceDecomposition:
    """Load a decomposition from JSON holding ``species``, ``Y_s``, and ``W``.

    Both matrices are row-per-species; ``W`` entries may be strings such as
    ``"-1/2"`` to stay exact.  Raises SchemaError / ShapeMismatchError /
    DuplicateVertexError on invalid documents.
    """
    doc = _read_json(source)
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
