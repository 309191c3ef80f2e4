"""Tests for the JavaScript lexer."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.html.tokenizer import StartTag, Text, tokenize_html
from repro.js.errors import JSSyntaxError
from repro.js.lexer import Token, tokenize
from repro.schedule_runner import load_page_inputs
from repro.sites import build_corpus

from .lexer_oracle import tokenize as reference_tokenize

EXAMPLE_PAGES = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples", "pages"
)

#: What generated sources are made of: the characters and prefixes where
#: the lexer's rules meet.
FRAGMENTS = [
    # identifiers: "é" is a letter; "²" and "٣" are digits isalpha()
    # rejects; "\xa0" is a space the lexer does not skip
    "a", "x1", "_", "$", "in", "var", "é", "²", "٣", "\xa0",
    # numbers, whole and cut short
    "0", "7", ".", "0x", "0xF", "1e+", "2E", "e", "-",
    # strings and escapes, a backslash before a line break among them
    "'", '"', "\\", "\\\n", "\\u", "\\u00e9", "\\x4", "\\n",
    # comments, closed or not
    "/*", "*/", "//", "/", "*",
    # whitespace
    " ", "\t", "\r", "\n", "\f", "\v",
    # punctuators: every character that starts one, and the longest
    # of each family; a character no rule takes
    "=", ">>>=", "!==", "<<=", "&&", "&=", "||", "|=", "++", "+", "--",
    "-=", "%=", "*=", "^=", "^", "~", "?", ":", ",", "[", "]", "{", "(",
    ")", "}", ";", "<", ">", "!", "&", "|", "@",
]


def types(source):
    return [token.type for token in tokenize(source)]


def values(source):
    return [token.value for token in tokenize(source)[:-1]]


def lexed(lex, source):
    """``lex``'s tokens with their value types, or its error's text and
    position."""
    try:
        return [(*token, type(token.value)) for token in lex(source)]
    except JSSyntaxError as error:
        return str(error), error.line, error.column


def page_scripts():
    """Every script of the corpus and the example pages: ``.js``
    resources, inline ``<script>`` bodies and ``on*`` attributes."""
    pages = [(site.html, site.resources) for site in build_corpus(0)]
    pages += [(page.html, page.resources) for page in load_page_inputs(EXAMPLE_PAGES)]
    scripts = set()
    for html, resources in pages:
        documents = [html]
        for name, text in resources.items():
            if name.endswith(".js"):
                scripts.add(text)
            elif name.endswith(".html"):
                documents.append(text)
        for document in documents:
            tokens = tokenize_html(document)
            for token, following in zip(tokens, tokens[1:] + [None]):
                if isinstance(token, StartTag):
                    scripts.update(
                        value
                        for name, value in token.attributes.items()
                        if name.startswith("on")
                    )
                    if token.name == "script" and isinstance(following, Text):
                        scripts.add(following.data)
    return sorted(scripts)


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type == "eof"

    def test_whitespace_only_yields_eof(self):
        assert types("  \t\n\r  ") == ["eof"]

    def test_identifier(self):
        tokens = tokenize("foo")
        assert tokens[0].type == "ident"
        assert tokens[0].value == "foo"

    def test_identifier_with_digits_and_specials(self):
        assert values("$jQuery _priv x1y2") == ["$jQuery", "_priv", "x1y2"]

    def test_identifier_at_end_of_input_terminates(self):
        # Regression: "" in "_$" is True in Python; the loop must not spin.
        tokens = tokenize("x")
        assert tokens[0].value == "x"
        assert tokens[1].type == "eof"

    def test_keywords_are_distinct_token_types(self):
        assert types("var function return if") == [
            "var",
            "function",
            "return",
            "if",
            "eof",
        ]

    def test_keyword_prefix_is_still_identifier(self):
        tokens = tokenize("variable functional iffy")
        assert all(token.type == "ident" for token in tokens[:-1])

    def test_non_ascii_identifiers(self):
        assert values("été x² a٣") == ["été", "x²", "a٣"]

    @pytest.mark.parametrize("source", ["²", "٣", "\xa0"])
    def test_only_letters_start_identifiers(self, source):
        with pytest.raises(JSSyntaxError, match="unexpected character"):
            tokenize(source)


class TestNumbers:
    def test_integer(self):
        assert values("42") == [42.0]

    def test_float(self):
        assert values("3.25") == [3.25]

    def test_leading_dot(self):
        assert values(".5") == [0.5]

    def test_exponent(self):
        assert values("1e3 2.5e-2 1E+2") == [1000.0, 0.025, 100.0]

    def test_number_at_end_of_input(self):
        assert values("x = 2")[-1] == 2.0

    def test_hex(self):
        assert values("0xff 0X10") == [255.0, 16.0]

    def test_malformed_hex_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("0x")

    def test_malformed_exponent_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("1e")


class TestStrings:
    def test_double_quoted(self):
        assert values('"hello"') == ["hello"]

    def test_single_quoted(self):
        assert values("'world'") == ["world"]

    def test_escapes(self):
        assert values(r"'a\nb\tc\\d'") == ["a\nb\tc\\d"]

    def test_quote_escapes(self):
        assert values(r'"she said \"hi\""') == ['she said "hi"']

    def test_unicode_escape(self):
        assert values(r"'A'") == ["A"]

    def test_hex_escape(self):
        assert values(r"'\x41'") == ["A"]

    def test_unknown_escape_keeps_char(self):
        assert values(r"'\q'") == ["q"]

    def test_unterminated_string_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("'abc")

    def test_newline_in_string_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("'a\nb'")

    def test_empty_string(self):
        assert values("''") == [""]


class TestComments:
    def test_line_comment_skipped(self):
        assert values("1 // comment\n2") == [1.0, 2.0]

    def test_block_comment_skipped(self):
        assert values("1 /* lots \n of stuff */ 2") == [1.0, 2.0]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("/* never ends")

    def test_comment_only_source(self):
        assert types("// just a comment") == ["eof"]


class TestPunctuators:
    def test_maximal_munch(self):
        assert values("=== == =") == ["===", "==", "="]

    def test_shift_operators(self):
        assert values(">>> >> >") == [">>>", ">>", ">"]

    def test_increment_vs_plus(self):
        assert values("++ + +=") == ["++", "+", "+="]

    def test_logical_operators(self):
        assert values("&& || & |") == ["&&", "||", "&", "|"]

    def test_brackets(self):
        assert values("( ) [ ] { }") == ["(", ")", "[", "]", "{", "}"]

    def test_unexpected_character_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("@")


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_error_carries_position(self):
        with pytest.raises(JSSyntaxError) as exc_info:
            tokenize("ok\n  @")
        assert exc_info.value.line == 2

    def test_is_punct_helper(self):
        token = Token("punct", "{", 1, 1)
        assert token.is_punct("{")
        assert not token.is_punct("}")
        assert not Token("ident", "{", 1, 1).is_punct("{")

    def test_escaped_line_break_in_a_string(self):
        tokens = tokenize("'a\\\nb' c")
        assert tokens[0].value == "a\nb"
        assert (tokens[1].line, tokens[1].column) == (2, 4)

    def test_string_errors_after_an_escaped_line_break(self):
        """An unterminated string is reported where it starts; a bad
        escape where its digits start."""
        with pytest.raises(JSSyntaxError) as exc_info:
            tokenize("x = 'a\\\nb")
        assert (exc_info.value.line, exc_info.value.column) == (1, 5)
        with pytest.raises(JSSyntaxError) as exc_info:
            tokenize("'\\\n\\u12'")
        assert (exc_info.value.line, exc_info.value.column) == (2, 3)


class TestAgainstReferenceLexer:
    """The master-pattern lexer against the character-at-a-time one it
    replaced (``lexer_oracle``): the same tokens, or the same error."""

    @given(
        st.one_of(
            st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join),
            st.text(max_size=40),
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_generated_sources(self, source):
        assert lexed(tokenize, source) == lexed(reference_tokenize, source)

    def test_every_page_script(self):
        scripts = page_scripts()
        assert len(scripts) > 100
        for source in scripts:
            assert lexed(tokenize, source) == lexed(reference_tokenize, source)
