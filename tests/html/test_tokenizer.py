"""Tests for the HTML tokenizer."""

from html.parser import HTMLParser
from pathlib import Path

from repro.html.tokenizer import (
    Comment,
    Doctype,
    EndTag,
    HtmlTokenizer,
    StartTag,
    Text,
    tokenize_html,
)
from repro.sites import build_corpus

PAGES = Path(__file__).resolve().parents[2] / "examples" / "pages"


class TestTags:
    def test_simple_start_end(self):
        tokens = tokenize_html("<div>hello</div>")
        assert isinstance(tokens[0], StartTag)
        assert tokens[0].name == "div"
        assert isinstance(tokens[1], Text)
        assert tokens[1].data == "hello"
        assert isinstance(tokens[2], EndTag)

    def test_tag_name_case_insensitive(self):
        tokens = tokenize_html("<DIV></DIV>")
        assert tokens[0].name == "div"
        assert tokens[1].name == "div"

    def test_self_closing(self):
        tokens = tokenize_html("<br/>")
        assert tokens[0].self_closing

    def test_void_tags_implicitly_self_closing(self):
        tokens = tokenize_html("<img src='x.png'>")
        assert tokens[0].self_closing

    def test_nested(self):
        tokens = tokenize_html("<a><b></b></a>")
        names = [
            (type(token).__name__, token.name)
            for token in tokens
        ]
        assert names == [
            ("StartTag", "a"),
            ("StartTag", "b"),
            ("EndTag", "b"),
            ("EndTag", "a"),
        ]


class TestAttributes:
    def test_double_quoted(self):
        tokens = tokenize_html('<div id="a" class="x y"></div>')
        assert tokens[0].attributes == {"id": "a", "class": "x y"}

    def test_single_quoted(self):
        tokens = tokenize_html("<div id='a'></div>")
        assert tokens[0].attributes["id"] == "a"

    def test_unquoted(self):
        tokens = tokenize_html("<div id=abc></div>")
        assert tokens[0].attributes["id"] == "abc"

    def test_bare_attribute_truthy(self):
        tokens = tokenize_html('<script src="x.js" async></script>')
        assert tokens[0].attributes["async"] == "true"

    def test_attribute_names_lowercased(self):
        tokens = tokenize_html('<img OnLoad="f()">')
        assert tokens[0].attributes["onload"] == "f()"

    def test_attribute_with_entities(self):
        tokens = tokenize_html('<div title="a &amp; b"></div>')
        assert tokens[0].attributes["title"] == "a & b"

    def test_self_closing_after_attributes(self):
        tokens = tokenize_html('<input type="text" />')
        assert tokens[0].attributes["type"] == "text"
        assert tokens[0].self_closing


class TestScriptsRawText:
    def test_script_body_single_text_token(self):
        tokens = tokenize_html("<script>if (a < b) { x(); }</script>")
        assert isinstance(tokens[1], Text)
        assert tokens[1].data == "if (a < b) { x(); }"
        assert isinstance(tokens[2], EndTag)

    def test_script_with_html_like_strings(self):
        source = "<script>var s = '<div>not a tag</div>';</script>"
        tokens = tokenize_html(source)
        assert "<div>" in tokens[1].data

    def test_unterminated_script(self):
        tokens = tokenize_html("<script>var x = 1;")
        assert tokens[1].data == "var x = 1;"

    def test_empty_script(self):
        tokens = tokenize_html("<script></script>")
        kinds = [type(token).__name__ for token in tokens]
        assert kinds == ["StartTag", "EndTag"]

    def test_style_also_raw(self):
        tokens = tokenize_html("<style>a > b { color: red }</style>")
        assert "a > b" in tokens[1].data

    def test_end_tag_matches_ascii_case_insensitively(self):
        tokens = tokenize_html("<script>x = 1;</ScRiPt ><style>a</STYLE>")
        assert [token.data for token in tokens if isinstance(token, Text)] == [
            "x = 1;",
            "a",
        ]
        assert [token.name for token in tokens if isinstance(token, EndTag)] == [
            "script",
            "style",
        ]

    def test_script_intact_after_text_that_lengthens_when_lowered(self):
        """``"İ".lower()`` is two code points: an end tag found in a
        lowered copy would cut the script short of its last characters."""
        tokens = tokenize_html("<p>İİİİ</p><script>var a = 1;</script>")
        assert tokens[4].data == "var a = 1;"
        assert tokens[5] == EndTag("script")


class TestCommentsAndDoctype:
    def test_comment(self):
        tokens = tokenize_html("<!-- a comment -->")
        assert isinstance(tokens[0], Comment)
        assert tokens[0].data == " a comment "

    def test_doctype(self):
        tokens = tokenize_html("<!DOCTYPE html><div></div>")
        assert isinstance(tokens[0], Doctype)

    def test_unterminated_comment(self):
        tokens = tokenize_html("<!-- never closed")
        assert isinstance(tokens[0], Comment)


class TestText:
    def test_whitespace_only_text_dropped(self):
        tokens = tokenize_html("<div>   </div>\n  <p></p>")
        assert not any(isinstance(token, Text) for token in tokens)

    def test_entities_decoded(self):
        tokens = tokenize_html("<p>a &lt; b &amp;&amp; c &gt; d</p>")
        assert tokens[1].data == "a < b && c > d"

    def test_stray_less_than_is_text(self):
        tokens = tokenize_html("<p>1 < 2</p>")
        text = "".join(t.data for t in tokens if isinstance(t, Text))
        assert "<" in text


class LoweredCopyTokenizer(HtmlTokenizer):
    """The earlier end-tag search: ``</tag`` found in a lowered copy."""

    def _read_raw_text(self, tag):
        index = self.source.lower().find(f"</{tag}", self.pos)
        if index == -1:
            data = self.source[self.pos :]
            self.pos = len(self.source)
            return data, None
        data = self.source[self.pos : index]
        end = self.source.find(">", index)
        self.pos = len(self.source) if end == -1 else end + 1
        return data, EndTag(tag)


def _shipped_pages():
    for site in build_corpus(master_seed=0):
        yield site.name, site.html
        for name, body in site.resources.items():
            if name.endswith((".html", ".htm")):
                yield f"{site.name}/{name}", body
    for path in sorted(PAGES.glob("*.html")):
        yield path.name, path.read_text()


def test_tokens_unchanged_on_shipped_pages():
    """On the corpus and example pages, where lowering keeps every
    offset, the direct search yields the earlier tokens exactly."""
    pages = list(_shipped_pages())
    assert len(pages) > 100
    for name, source in pages:
        expected = LoweredCopyTokenizer(source).tokenize()
        assert tokenize_html(source) == expected, name


class StdlibTags(HTMLParser):
    """Start tags (with attributes) and end tags as ``html.parser`` reads
    them, in the shape :func:`tags_of` gives ``tokenize_html``'s."""

    def __init__(self, source):
        super().__init__(convert_charrefs=True)
        self.tags = []
        self.feed(source)
        self.close()

    def handle_starttag(self, tag, attrs):
        # The one known deviation: a bare attribute (``<script async>``)
        # reads "true" here, where html.parser gives None (HTML: "").
        # Scripts read the value, so it stays; any other difference fails.
        attributes = [(name, "true" if value is None else value) for name, value in attrs]
        self.tags.append(("start", tag, attributes))

    handle_startendtag = handle_starttag

    def handle_endtag(self, tag):
        self.tags.append(("end", tag))


def tags_of(source):
    return [
        ("start", token.name, list(token.attributes.items()))
        if isinstance(token, StartTag)
        else ("end", token.name)
        for token in tokenize_html(source)
        if isinstance(token, (StartTag, EndTag))
    ]


def test_tags_match_the_standard_library_parser():
    """The corpus pages, their iframe documents and the example pages
    yield the start tags, attributes and end tags ``html.parser`` does."""
    pages = list(_shipped_pages())
    assert len(pages) == 166
    for name, source in pages:
        assert tags_of(source) == StdlibTags(source).tags, name
