"""Tests for the incremental HTML parser."""

from repro import WebRacer
from repro.dom.document import Document
from repro.html.parser import IncrementalHtmlParser, parse_html


def fresh(source):
    document = Document("t.html")
    parser = IncrementalHtmlParser(document, source)
    return document, parser


class TestIncrementalUnits:
    def test_one_unit_per_element(self):
        _document, parser = fresh("<div id='a'></div><p></p><span></span>")
        tags = []
        while True:
            unit = parser.next_unit()
            if unit is None:
                break
            tags.append(unit.element.tag)
        assert tags == ["div", "p", "span"]

    def test_units_carry_source_order(self):
        document, parser = fresh("<div></div><p></p>")
        first = parser.next_unit()
        second = parser.next_unit()
        assert first.order < second.order

    def test_commit_is_explicit(self):
        """The element is NOT in the document until commit() — the page
        loader wraps insertion in a parse(E) operation."""
        document, parser = fresh("<div id='x'></div>")
        unit = parser.next_unit()
        assert document.get_element_by_id("x") is None
        unit.commit(document)
        assert document.get_element_by_id("x") is not None

    def test_finished_flag(self):
        _document, parser = fresh("<div></div>")
        assert parser.next_unit() is not None
        assert parser.next_unit() is None
        assert parser.finished


class TestTreeShape:
    def test_nesting(self):
        document = Document()
        parse_html(document, "<div id='a'><div id='b'></div></div><div id='c'></div>")
        a = document.get_element_by_id("a")
        b = document.get_element_by_id("b")
        c = document.get_element_by_id("c")
        assert b.parent is a
        assert c.parent is document.body
        assert a.parent is document.body

    def test_scaffold_tags_folded(self):
        document = Document()
        parse_html(document, "<html><head></head><body><div id='d'></div></body></html>")
        element = document.get_element_by_id("d")
        assert element.parent is document.body

    def test_void_elements_do_not_nest(self):
        document = Document()
        parse_html(document, "<img src='a.png'><div id='after'></div>")
        after = document.get_element_by_id("after")
        assert after.parent is document.body

    def test_unmatched_end_tag_ignored(self):
        document = Document()
        elements = parse_html(document, "</div><p id='p'></p>")
        assert document.get_element_by_id("p") is not None

    def test_implicitly_closed_by_outer_end_tag(self):
        document = Document()
        parse_html(document, "<div id='o'><span id='i'></div><p id='p'></p>")
        assert document.get_element_by_id("i").parent is document.get_element_by_id("o")
        assert document.get_element_by_id("p").parent is document.body


class TestTextAndScripts:
    def test_text_attaches_to_innermost(self):
        document = Document()
        parse_html(document, "<div id='d'>hello <b id='b'>bold</b></div>")
        assert "hello" in document.get_element_by_id("d").text
        assert document.get_element_by_id("b").text == "bold"

    def test_script_source_captured_before_unit_returned(self):
        _document, parser = fresh("<script>var x = 1 < 2;</script>")
        unit = parser.next_unit()
        assert unit.element.tag == "script"
        assert unit.element.text == "var x = 1 < 2;"

    def test_script_is_single_unit(self):
        _document, parser = fresh("<script>code();</script><div></div>")
        assert parser.next_unit().element.tag == "script"
        assert parser.next_unit().element.tag == "div"

    def test_attributes_preserved(self):
        document = Document()
        elements = parse_html(
            document, '<script src="a.js" defer="true"></script>'
        )
        assert elements[0].is_deferred

    def test_handler_attribute_raw(self):
        document = Document()
        elements = parse_html(document, '<img id="g" onload="doWorkA()">')
        assert elements[0].get_attribute("onload") == "doWorkA()"


class TestParseHtmlHelper:
    def test_returns_elements_in_parse_order(self):
        document = Document()
        elements = parse_html(document, "<div></div><p></p>")
        assert [element.tag for element in elements] == ["div", "p"]

    def test_empty_source(self):
        document = Document()
        assert parse_html(document, "") == []

    def test_comment_only(self):
        document = Document()
        assert parse_html(document, "<!-- nothing here -->") == []


class TestTokenRelease:
    def test_parser_holds_only_unconsumed_tokens(self):
        _document, parser = fresh("<div></div><p></p>")
        assert len(parser.tokens) == 4
        parser.next_unit()
        assert len(parser.tokens) == 3
        while parser.next_unit() is not None:
            pass
        assert parser.tokens == []

    def test_checked_page_parsers_hold_no_tokens(self):
        report = WebRacer(seed=0).check_page(
            "<div id='a'></div><script>x = 1;</script>"
            "<iframe src='f.html'></iframe><p></p>",
            resources={"f.html": "<span></span><script>y = 2;</script>"},
        )
        loaders = list(report.page.loaders.values())
        assert len(loaders) == 2
        for loader in loaders:
            assert loader.parser.finished
            assert loader.parser.tokens == []
