"""Hypothesis robustness tests for the HTML pipeline.

The corpus generator feeds arbitrary synthesized markup through the
tokenizer and incremental parser; neither may hang, crash, or corrupt the
tree on any input.
"""

from hypothesis import given, settings, strategies as st

from repro.dom.document import Document
from repro.html.parser import IncrementalHtmlParser, parse_html
from repro.html.tokenizer import tokenize_html

html_text = st.text(
    alphabet=" \t\nabcdiv<>/='\"!-#.;:scriptXYZ0123456789",
    max_size=200,
)


@given(html_text)
@settings(max_examples=300, deadline=None)
def test_tokenizer_total(source):
    """The tokenizer never raises on arbitrary text."""
    tokens = tokenize_html(source)
    assert isinstance(tokens, list)


@given(html_text)
@settings(max_examples=200, deadline=None)
def test_parser_always_terminates(source):
    """The incremental parser consumes any token soup in bounded steps."""
    document = Document("fuzz.html")
    parser = IncrementalHtmlParser(document, source)
    steps = 0
    while parser.next_unit() is not None:
        steps += 1
        assert steps <= len(source) + 10, "parser failed to make progress"


@given(html_text)
@settings(max_examples=200, deadline=None)
def test_parsed_tree_is_well_formed(source):
    """Whatever the input, the resulting DOM is a consistent tree."""
    document = Document("fuzz.html")
    elements = parse_html(document, source)
    for element in elements:
        assert element.inserted
        assert element.root() is document
        # Parent/child links are mutually consistent.
        if element.parent is not None:
            assert element in element.parent.children
        for child in element.children:
            assert child.parent is element


@given(html_text)
@settings(max_examples=100, deadline=None)
def test_id_index_consistent_after_fuzz(source):
    document = Document("fuzz.html")
    parse_html(document, source)
    for element in document.all_elements():
        if element.element_id:
            found = document._id_index.get(element.element_id)
            assert found is not None
            assert found.element_id == element.element_id


@given(st.lists(st.sampled_from(
    ["<div id='a'>", "</div>", "<p>", "</p>", "text ", "<img src='x'>",
     "<script>var a = 1;</script>", "<!-- c -->", "<input>", "</span>"]),
    min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_tag_soup_loads_in_browser(fragments):
    """Arbitrary recombinations of valid fragments load end-to-end: the
    page settles, window load fires, no Python exceptions escape."""
    from repro.browser.page import Browser

    source = "".join(fragments)
    page = Browser(seed=0, resources={"x": "bin"}).load(source)
    assert page.loaded()
