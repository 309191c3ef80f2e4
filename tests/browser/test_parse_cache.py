"""The source-keyed parse caches in front of the JavaScript parser and
the HTML tokenizer.

``repro.browser.page.parse_js`` memoizes :func:`repro.js.parser.parse` by
source text, so every run of a page after its first reuses its scripts'
ASTs.  These tests pin what makes one AST safe to share: running it never
changes it, explore output is the same without the cache, and a script
that fails to parse fails, and is recorded, on every run.  The HTML
parser shares the tokens of a source parsed more than once
(``repro.html.parser``); a run that rewrites the attributes of parsed
elements must leave the next run's parse as fresh as a first one.
"""

import os
from collections import Counter

import pytest

from repro.__main__ import main
from repro.browser import page as page_module
from repro.browser.page import Browser
from repro.browser.scheduler import DecisionScheduler
from repro.config import RunConfig
from repro.html import parser as html_parser
from repro.js import parser
from repro.js.errors import JSSyntaxError
from repro.schedule_runner import (
    PageInput,
    explore_pages,
    load_page_inputs,
    run_identity,
    run_page_once,
    schedule_matrix,
)
from repro.sites import build_corpus

EXAMPLE_PAGES = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples", "pages"
)
#: Corpus sites without ``ford_polling``, whose polling never settles
#: under the adversarial schedule.
CORPUS_SITES = (0, 3, 4)


def test_one_program_per_source(monkeypatch):
    lexed = []
    tokenize = parser.tokenize

    def counting_tokenize(source):
        lexed.append(source)
        return tokenize(source)

    monkeypatch.setattr(parser, "tokenize", counting_tokenize)
    page_module.parse_js.cache_clear()
    program = page_module.parse_js("probe = 1;")
    assert page_module.parse_js("probe = 1;") is program
    assert lexed == ["probe = 1;"]
    # The parser itself stays uncached.
    assert parser.parse("probe = 1;") is not program
    assert lexed == ["probe = 1;"] * 2


@pytest.fixture(scope="module")
def handed_out():
    """Every program the cache handed out, by source, while exploring the
    example pages and three corpus sites."""
    programs = {}
    cached = page_module.parse_js

    def recording(source):
        program = cached(source)
        programs.setdefault(source, []).append(program)
        return program

    sites = build_corpus(0, limit=max(CORPUS_SITES) + 1)
    pages = load_page_inputs(EXAMPLE_PAGES) + [
        PageInput(
            url=sites[index].name,
            html=sites[index].html,
            resources=dict(sites[index].resources),
        )
        for index in CORPUS_SITES
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(page_module, "parse_js", recording)
        report = explore_pages(pages, schedules=4, seed=0)
    assert all(run.ok for page in report.pages for run in page.runs)
    return programs


def test_runs_share_cached_programs(handed_out):
    assert any(
        len({id(program) for program in programs}) < len(programs)
        for programs in handed_out.values()
    )


def test_running_a_cached_program_never_changes_it(handed_out):
    # ``Node.line`` is compare=False, so compare reprs, which show it.
    for source, programs in handed_out.items():
        fresh = repr(parser.parse(source))
        for program in {id(program): program for program in programs}.values():
            assert repr(program) == fresh


def test_explore_json_is_the_same_without_the_cache(tmp_path, monkeypatch, capsys):
    def explore(name):
        path = tmp_path / name
        status = main([
            "explore", EXAMPLE_PAGES, "--schedules", "8", "--seed", "0",
            "--json", str(path),
        ])
        return status, path.read_bytes()

    cached = explore("cached.json")
    monkeypatch.setattr(page_module, "parse_js", parser.parse)
    monkeypatch.setattr(html_parser, "TOKEN_CACHE_SIZE", 0)
    assert explore("uncached.json") == cached


def test_a_syntax_error_is_recorded_on_every_run():
    """Exceptions are not cached: every run parses a broken script again
    and records its own crash, once per copy on the page."""
    html = "<script>not javascript %%</script>" * 2
    for _ in range(3):
        crashes = Browser(seed=0).load(html).trace.crashes
        assert [type(crash.error) for crash in crashes] == [JSSyntaxError] * 2


#: Inline scripts rewrite the attributes, ids included, of elements the
#: parser built from the page's and its iframe's tokens.
REWRITING_PAGE = PageInput(
    url="rewrite.html",
    html=(
        "<div id='box' class='old' title='t'>text</div>"
        "<iframe id='frame' src='inner.html'></iframe>"
        "<script>"
        "var box = document.getElementById('box');"
        "box.setAttribute('class', 'new'); box.setAttribute('id', 'moved');"
        "box.setAttribute('data-n', '1');"
        "setTimeout(function () { seen = document.getElementById('box'); }, 3);"
        "</script>"
        "<p id='box'></p>"
    ),
    resources={
        "inner.html": (
            "<span id='s' class='a'></span>"
            "<script>document.getElementById('s').setAttribute('id', 't');</script>"
        )
    },
)


def test_shared_tokens_parse_like_fresh_ones(monkeypatch):
    """Every explore cell and its replay record the same trace, and a
    run on shared tokens records what a run on fresh tokens does."""
    config = RunConfig(seed=0)
    specs = schedule_matrix(8, seed=0)

    def identities():
        identities = []
        for spec in specs:
            page = run_page_once(
                REWRITING_PAGE, DecisionScheduler(spec.build()), config
            )
            identities.append(run_identity(page))
            page.close()
        return identities

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(html_parser, "TOKEN_CACHE_SIZE", 0)
        fresh = identities()

    report = explore_pages([REWRITING_PAGE], schedules=8, seed=0)
    assert [run.replay_ok for run in report.pages[0].runs] == [True] * 8

    tokenized = Counter()
    tokenize = html_parser.tokenize_html

    def counting(source):
        tokenized[source] += 1
        return tokenize(source)

    monkeypatch.setattr(html_parser, "tokenize_html", counting)
    assert identities() == fresh
    assert tokenized == Counter()
