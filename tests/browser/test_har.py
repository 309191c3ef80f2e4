"""Tests for HAR ingestion (``repro.har``)."""

import json
import pathlib

import pytest

from repro.har import (
    DEFAULT_ENTRY_SIZE,
    HarEntry,
    HarError,
    load_har,
    parse_har,
    synthesize_driver,
    workload_from_entries,
)
from repro.inputs import InputError

EXAMPLE_HAR = (
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "pages" / "shop.har"
)


def har_text(entries):
    """Minimal HAR document around a list of raw entry dicts."""
    return json.dumps({"log": {"version": "1.2", "entries": entries}})


def entry(url, mime="application/javascript", text=None, size=None, body_size=None):
    content = {"mimeType": mime}
    if text is not None:
        content["text"] = text
    if size is not None:
        content["size"] = size
    response = {"status": 200, "content": content}
    if body_size is not None:
        response["bodySize"] = body_size
    return {"request": {"method": "GET", "url": url}, "response": response}


class TestParseErrors:
    def test_not_json(self):
        with pytest.raises(HarError, match="not valid JSON"):
            parse_har("this is { not json")

    def test_top_level_not_object(self):
        with pytest.raises(HarError, match="top level"):
            parse_har("[1, 2, 3]")

    def test_missing_log(self):
        with pytest.raises(HarError, match="missing 'log'"):
            parse_har('{"version": "1.2"}')

    def test_missing_entries(self):
        with pytest.raises(HarError, match="log.entries"):
            parse_har('{"log": {"version": "1.2"}}')

    def test_empty_capture(self):
        with pytest.raises(HarError, match="no entries"):
            parse_har(har_text([]))

    def test_entry_not_an_object(self):
        with pytest.raises(HarError, match="entry 0"):
            parse_har(har_text(["nope"]))

    def test_entry_without_url(self):
        bad = {"request": {"method": "GET"}, "response": {"status": 200}}
        with pytest.raises(HarError, match="entry 0 has no request URL"):
            parse_har(har_text([bad]))


class TestEntryFields:
    def test_size_prefers_content_size(self):
        [parsed] = parse_har(
            har_text([entry("https://a.example/x.js", text="tiny", size=9000,
                            body_size=7000)])
        )
        assert parsed.size == 9000

    def test_size_falls_back_to_body_size(self):
        [parsed] = parse_har(
            har_text([entry("https://a.example/x.js", text="tiny", body_size=7000)])
        )
        assert parsed.size == 7000

    def test_size_falls_back_to_text_length(self):
        [parsed] = parse_har(
            har_text([entry("https://a.example/x.js", text="12345678")])
        )
        assert parsed.size == 8

    def test_size_default_when_nothing_usable(self):
        [parsed] = parse_har(har_text([entry("https://a.example/x.js")]))
        assert parsed.size == DEFAULT_ENTRY_SIZE

    def test_origin_and_kind_properties(self):
        [parsed] = parse_har(
            har_text([entry("https://cdn.example/app.js", text="var x;")])
        )
        assert parsed.origin == "https://cdn.example"
        assert parsed.is_script
        assert not parsed.is_html
        assert not parsed.mime.startswith("image/")

    def test_body_text_passthrough(self):
        [parsed] = parse_har(
            har_text([entry("https://a.example/x.js", text="var x = 1;")])
        )
        assert parsed.text == "var x = 1;"


class TestDriverSynthesis:
    def test_scripts_load_async_images_as_img(self):
        html = synthesize_driver(
            [
                HarEntry(url="https://a.example/app.js", size=10,
                         mime="application/javascript"),
                HarEntry(url="https://a.example/pic.png", size=10,
                         mime="image/png"),
            ]
        )
        assert '<script src="https://a.example/app.js" async></script>' in html
        assert '<img src="https://a.example/pic.png">' in html

    def test_html_entries_are_skipped(self):
        html = synthesize_driver(
            [HarEntry(url="https://a.example/frame.html", size=10, mime="text/html")]
        )
        assert "frame.html" not in html


class TestWorkloadAssembly:
    def test_captured_driver_body_used_verbatim(self):
        driver_html = "<html><body><script>var x = 1;</script></body></html>"
        workload = workload_from_entries(
            [
                HarEntry(url="https://a.example/", size=100, mime="text/html",
                         text=driver_html),
                HarEntry(url="https://a.example/app.js", size=50,
                         mime="application/javascript", text="var y;"),
            ]
        )
        assert workload.url == "https://a.example/"
        assert workload.html == driver_html
        assert workload.resources == {"https://a.example/app.js": "var y;"}
        assert workload.sizes == {"https://a.example/app.js": 50}

    def test_stripped_driver_is_synthesized(self):
        workload = workload_from_entries(
            [
                HarEntry(url="https://a.example/", size=100, mime="text/html"),
                HarEntry(url="https://a.example/app.js", size=50,
                         mime="application/javascript"),
            ]
        )
        assert '<script src="https://a.example/app.js" async></script>' in workload.html

    def test_no_html_entry_synthesizes_from_first(self):
        workload = workload_from_entries(
            [HarEntry(url="https://a.example/app.js", size=50,
                      mime="application/javascript", text="var z;")]
        )
        assert workload.url == "https://a.example/app.js"
        assert "app.js" in workload.html


class TestBundledExample:
    def test_shop_har_loads(self):
        workload = load_har(str(EXAMPLE_HAR))
        assert workload.url == "https://shop.example.com/"
        assert "catalogReady" in workload.html
        assert workload.sizes["https://cdn.shop-static.example/catalog.js"] == 1200000
        assert len(workload.entries) == 4

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(InputError):
            load_har(str(tmp_path / "gone.har"))
