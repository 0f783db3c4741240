import random

import pytest

from cantorfull import completion, tails
from cantorfull import pmap as pmap_module
from cantorfull.completion import GeneratorTable, evaluate
from cantorfull.errors import ParseError
from cantorfull.parser import Parser, element_to_text, expr_to_text
from cantorfull.pmap import eq, one, zero
from cantorfull.tails import grigorchuk, invert

from oracles import clo, pm, random_pmap, word

GRI = grigorchuk()
REGISTRY = {s: (GRI, s) for s in GRI.states}
P = Parser(2, REGISTRY)


def test_parse_element_swap():
    assert eq(P.parse_element("[0->1, 1->0]"), pm(2, "0->1", "1->0"))


def test_parse_element_zero_one():
    assert P.parse_element("0").is_zero()
    assert eq(P.parse_element("1"), one(2))


def test_parse_element_with_tail():
    m = P.parse_element("[00->01:a^-1*b]")
    assert len(m.branches) == 1
    b = m.branches[0]
    assert b.dom == (0, 0) and b.ran == (0, 1)
    assert tails.equal(b.tail, tails.compose(invert(word(GRI, "a")), word(GRI, "b")))


def test_parse_element_comparable_domains_rejected():
    with pytest.raises(ParseError):
        P.parse_element("[0->1, 01->00]")


def test_parse_element_error_position():
    with pytest.raises(ParseError) as exc:
        P.parse_element("[0->")
    assert exc.value.line == 1
    assert exc.value.col == 5


def test_parse_clopen():
    assert P.parse_clopen("{00, 01, 1}") == clo("{~}")
    assert P.parse_clopen("{}").is_empty()
    assert P.parse_clopen("{~}").is_full()


def test_print_parse_roundtrip_random():
    rng = random.Random(42)
    for _ in range(100):
        m = random_pmap(rng, 2, kinds=("trivial", "grigorchuk"))
        text = element_to_text(m)
        back = P.parse_element(text)
        assert eq(back, m), text


def test_element_text_lists_branches_shortest_domain_first():
    m = P.parse_element("[1->00, 00->1:a, 010->011, 011->010]")
    assert [b.dom for b in m.branches] == [(0, 0), (0, 1, 0), (0, 1, 1), (1,)]
    assert element_to_text(m) == "[1->00, 00->1:a, 010->011, 011->010]"
    assert repr(m) == "PartialMap(d=2, [[1->00], [00->1:a], [010->011], [011->010]])"


def test_printing_reads_the_identity_off_the_table(monkeypatch):
    # "1" is one branch () -> () without tail factors, told from the table's
    # shape with no identity map built; a decorated root branch is not "1"
    swap, ident = pm(2, "0->1", "1->0"), one(2)
    monkeypatch.setattr(pmap_module, "one", None)
    assert element_to_text(ident) == "1"
    assert element_to_text(pm(2, "0->0", "1->1")) == "1"
    assert element_to_text(pm(2, ("->", word(grigorchuk(), "a")))) == "[~->~:a]"
    assert element_to_text(swap) == "[0->1, 1->0]"
    assert element_to_text(zero(2)) == "0"


def test_parse_expr_shapes():
    node = P.parse_expr("s @{01}")
    assert isinstance(node, completion.Restrict)
    node = P.parse_expr("x * x^-1")
    assert isinstance(node, completion.Product)
    assert isinstance(node.children[1], completion.Star)
    node = P.parse_expr("g@{0} | h@{1}")
    assert isinstance(node, completion.Join)
    node = P.parse_expr("(a | b) * {01}")
    assert isinstance(node, completion.Product)
    assert isinstance(node.children[0], completion.Join)
    assert isinstance(node.children[1], completion.IdempotentLeaf)


def test_parse_expr_evaluates():
    table = GeneratorTable(2, {"s": pm(2, "0->1", "1->0")})
    val = evaluate(P.parse_expr("s@{01}"), table)
    assert eq(val, pm(2, "01->11"))
    val = evaluate(P.parse_expr("s*s"), table)
    assert eq(val, one(2))
    val = evaluate(P.parse_expr("[0->1]|[1->0]"), table)
    assert eq(val, pm(2, "0->1", "1->0"))


def test_expr_roundtrip():
    for text in ("s@{01}", "x * y^-1", "g@{0} | h@{1}", "[0->10, 11->0]", "{00, 1}"):
        node = P.parse_expr(text)
        again = P.parse_expr(expr_to_text(node))
        assert again == node


def _error(parse, text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    return exc.value.line, exc.value.col, exc.value.expected


def test_parse_msec():
    base, exprs = P.parse_msec("msec({00}; [00->01], s@{00} | [00->10, 01->11])")
    assert base == clo("{00}")
    assert eq(exprs[0].element, pm(2, "00->01"))
    assert isinstance(exprs[1], completion.Join)
    assert P.parse_msec(" msec ( {0} ) ") == (clo("{0}"), [])


def test_msec_and_partition_errors_are_placed_in_the_whole_literal():
    assert _error(P.parse_msec, "msec({00}; [00->])")[:2] == (1, 17)
    assert _error(P.parse_partition, "{0};{2}") == (1, 6, "letters below 2")
    assert _error(P.parse_msec, "msec({00}; [00->01]")[:2] == (1, 20)
    assert _error(P.parse_msec, "mesc({00}; [00->01])") == (1, 1, "'msec'")


def test_msec_refuses_an_empty_map():
    for text in ("msec( {00} ; [00->01] ,, [00->10])", "msec({00}; [00->01],)", "msec({0};)"):
        with pytest.raises(ParseError):
            P.parse_msec(text)


def test_parse_partition():
    assert P.parse_partition("{0}; {10};{11}") == [clo("{0}"), clo("{10}"), clo("{11}")]
    assert _error(P.parse_partition, "{0};")[:2] == (1, 5)


def test_error_position_over_several_lines():
    text = "msec({00};\n  [00->01],\n  [00->2])"
    assert _error(P.parse_msec, text) == (3, 8, "letters below 2")
    assert _error(P.parse_expr, "s *\n\n x |")[:2] == (3, 5)


def test_names_start_with_a_letter():
    # "²" and "½" are alphanumeric but not letters, so no name starts there
    assert _error(P.parse_expr, "s * ²x")[:3] == (1, 5, "a token")
    assert _error(P.parse_expr, "½")[:3] == (1, 1, "a token")
    assert P.parse_expr("éa * x²") == completion.Product(
        (completion.GeneratorRef("éa"), completion.GeneratorRef("x²"))
    )
