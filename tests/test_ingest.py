import io
import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wr1.errors import (
    DuplicateEquationError,
    DuplicateVertexError,
    EmptySystemError,
    NegativeExponentError,
    SchemaError,
    ShapeMismatchError,
    SystemSyntaxError,
    UndeclaredSpeciesError,
)
from wr1.ingest import (
    PolynomialSystem,
    Term,
    decompose,
    load_decomposition,
    parse_system,
    render_system,
)
from wr1.linalg import RationalMatrix, RationalVector

from .conftest import CYCLE3_TEXT, CYCLE4_TEXT, COMPLETE3_TEXT

F = Fraction


def term_map(system):
    return {t.exponents: t.coefficients for t in system.terms}


def test_parse_two_species_system():
    system = parse_system(CYCLE3_TEXT)
    assert system.species == ("x", "y")
    assert term_map(system) == {
        (1, 0): (F(1), F(0)),
        (2, 1): (F(-1), F(-1)),
        (2, 0): (F(0), F(1)),
    }


def test_parse_single_species_cubic():
    system = parse_system(COMPLETE3_TEXT)
    assert term_map(system) == {(1,): (F(1),), (2,): (F(1),), (3,): (F(-1),)}


def test_parse_cancellation_drops_term():
    system = parse_system("species x; x' = x - x;")
    assert system.terms == ()


def test_parse_rational_coefficients_and_repeated_factors():
    system = parse_system("species x, y; x' = 1/2*x*x*y - 3*y^2 + 4;")
    assert term_map(system) == {
        (2, 1): (F(1, 2), F(0)),
        (0, 2): (F(-3), F(0)),
        (0, 0): (F(4), F(0)),
    }


def test_parse_missing_equation_means_zero_dynamics():
    system = parse_system("species x, y; x' = x*y;")
    assert term_map(system) == {(1, 1): (F(1), F(0))}


def test_parse_comments_and_whitespace():
    text = "# heading\nspecies x , y ;# inline\n  x' =x-x^2 * y;\ny'=x^2-x^2*y;\n"
    assert decompose(parse_system(text)) == decompose(parse_system(CYCLE3_TEXT))


def test_syntax_error_carries_position():
    with pytest.raises(SystemSyntaxError) as info:
        parse_system("species x;\nx' = + ;")
    assert info.value.line == 2
    assert info.value.col == 8


@pytest.mark.parametrize(
    "text, expected",
    [
        # a trailing comment without a newline: the end of input sits at its '#'
        ("species x; x' = x # note", "expected ';' (line 1, column 19)"),
        ("species x;\r\nx' = 1/0;\r\n", "zero denominator (line 2, column 8)"),
        # a tab is one column
        ("species x;\n\tx' = y;", "unknown species 'y' (line 2, column 7)"),
        ("species α; α' = 2*α;", {(1,): (F(2),)}),
        # an integer is a run of Unicode decimal digits, as int() reads them
        ("species x; x' = ٣*x;", {(1,): (F(3),)}),
        ("species x; x' = ½*x;", "unexpected character '½' (line 1, column 17)"),
        ("species x; x' = x @ 1;", "unexpected character '@' (line 1, column 19)"),
        # str.isdigit holds for '²', but it is no decimal digit and int() refuses it
        ("species x; x' = x^²;", "unexpected character '²' (line 1, column 19)"),
    ],
)
def test_tokenizer_positions_and_character_classes(text, expected):
    if isinstance(expected, str):
        with pytest.raises(SystemSyntaxError) as info:
            parse_system(text)
        assert str(info.value) == expected
    else:
        assert term_map(parse_system(text)) == expected


def test_undeclared_species_rejected():
    with pytest.raises(UndeclaredSpeciesError):
        parse_system("species x; x' = x*z;")
    with pytest.raises(UndeclaredSpeciesError):
        parse_system("species x; z' = x;")


def test_negative_exponent_rejected():
    with pytest.raises(NegativeExponentError):
        parse_system("species x; x' = x^-2;")


def test_duplicate_equation_rejected():
    with pytest.raises(DuplicateEquationError):
        parse_system("species x; x' = x; x' = 0;")


def test_decompose_orders_columns_lexicographically():
    dec = decompose(parse_system(CYCLE3_TEXT))
    assert dec.vertices == ((1, 0), (2, 0), (2, 1))
    assert dec.net_vectors == RationalMatrix.from_rows([[1, 0, -1], [0, 1, -1]])


def test_decompose_four_vertex_system():
    dec = decompose(parse_system(CYCLE4_TEXT))
    assert dec.vertices == ((1, 0), (1, 1), (2, 0), (2, 1))
    assert dec.net_vectors == RationalMatrix.from_rows([[1, 0, 0, -1], [0, -1, 1, 0]])


def test_decompose_single_term():
    dec = decompose(parse_system("species x; x' = 5*x^3;"))
    assert dec.vertices == ((3,),)
    assert dec.net_vectors == RationalMatrix.from_rows([[5]])


def test_decompose_empty_system_rejected():
    with pytest.raises(EmptySystemError):
        decompose(parse_system("species x; x' = 0;"))


def test_render_round_trip():
    for text in (CYCLE3_TEXT, CYCLE4_TEXT, COMPLETE3_TEXT, "species x; x' = 1/3 - x^2;"):
        system = parse_system(text)
        assert decompose(parse_system(render_system(system))) == decompose(system)


_COEFFICIENTS = st.one_of(st.just(F(0)), st.builds(F, st.integers(-30, 30), st.integers(1, 12)))


@st.composite
def polynomial_systems(draw):
    """Rational and negative coefficients, constant terms, and species whose row is all zero."""
    n = draw(st.integers(1, 3))
    species = draw(st.lists(st.sampled_from(["x", "y", "z", "A1", "k_2", "Sp"]), min_size=n, max_size=n, unique=True))
    exponents = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=5, unique=True))
    terms = []
    for vertex in sorted(exponents):
        coefficients = draw(st.tuples(*[_COEFFICIENTS] * n).filter(lambda c: any(c)))
        terms.append(Term(vertex, coefficients))
    return PolynomialSystem(tuple(species), tuple(terms))


@settings(max_examples=200, deadline=None)
@given(polynomial_systems())
def test_render_parse_round_trip_fuzz(system):
    assert parse_system(render_system(system)) == system


def test_decompose_is_aggregation_invariant():
    merged = parse_system("species x; x' = 3*x^2;")
    split = parse_system("species x; x' = x^2 + 2*x^2;")
    assert decompose(merged) == decompose(split)


def test_reconstruction_at_random_positive_points():
    rng = Random(7)
    system = parse_system(CYCLE4_TEXT)
    dec = decompose(system)
    for _ in range(25):
        point = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in system.species]
        # the field straight from the parsed terms
        direct = [F(0), F(0)]
        for term in system.terms:
            monomial = point[0] ** term.exponents[0] * point[1] ** term.exponents[1]
            direct = [d + monomial * c for d, c in zip(direct, term.coefficients)]
        direct = RationalVector.of(direct)
        assert dec.rhs_at(point) == direct
        # recompute by explicit monomial summation as an extra guard
        total = [F(0), F(0)]
        for i, vertex in enumerate(dec.vertices):
            monomial = point[0] ** vertex[0] * point[1] ** vertex[1]
            column = dec.net_vectors.column(i)
            total = [t + monomial * c for t, c in zip(total, column)]
        assert RationalVector.of(total) == direct


def test_polynomial_system_validation():
    with pytest.raises(ValueError):
        PolynomialSystem(("x",), (Term((1,), (F(0),)),))
    with pytest.raises(ValueError):
        PolynomialSystem(("x",), (Term((-1,), (F(1),)),))
    with pytest.raises(ValueError):
        PolynomialSystem(("x",), (Term((1,), (F(1),)), Term((1,), (F(2),))))


VALID_DOC = {
    "species": ["x", "y"],
    "Y_s": [[1, 2, 2], [0, 0, 1]],
    "W": [["1", "0", "-1"], ["0", "1", "-1"]],
}


def load_doc(doc):
    return load_decomposition(io.StringIO(json.dumps(doc)))


def test_load_decomposition_valid():
    dec = load_doc(VALID_DOC)
    assert dec.species == ("x", "y")
    assert dec.vertices == ((1, 0), (2, 0), (2, 1))
    assert dec.net_vector(2) == RationalVector.of([-1, -1])


def test_load_decomposition_accepts_integer_net_entries():
    doc = dict(VALID_DOC, W=[[1, 0, -1], [0, 1, -1]])
    assert load_doc(doc) == load_doc(VALID_DOC)


def test_load_decomposition_schema_errors():
    with pytest.raises(SchemaError):
        load_doc({"species": ["x"]})
    with pytest.raises(SchemaError):
        load_doc(dict(VALID_DOC, species=[]))
    with pytest.raises(SchemaError):
        load_doc(dict(VALID_DOC, Y_s=[[1, -2, 2], [0, 0, 1]]))
    with pytest.raises(SchemaError):
        load_doc(dict(VALID_DOC, W=[["1", "0", "oops"], ["0", "1", "-1"]]))


def test_load_decomposition_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        load_doc(dict(VALID_DOC, W=[["1", "0"], ["0", "1"]]))
    with pytest.raises(ShapeMismatchError):
        load_doc(dict(VALID_DOC, Y_s=[[1, 2, 2]]))


def test_load_decomposition_duplicate_vertex():
    with pytest.raises(DuplicateVertexError):
        load_doc(dict(VALID_DOC, Y_s=[[1, 1, 2], [0, 0, 1]]))
