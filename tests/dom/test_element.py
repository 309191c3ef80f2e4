"""Tests for DOM elements: attributes, scripts, form state, handlers."""

from repro.browser.page import Browser
from repro.dom.document import Document
from repro.dom.element import FORM_FIELD_TAGS, Element


def is_form_field(element):
    """input/textarea/select?"""
    return element.tag in FORM_FIELD_TAGS


def listeners_for(element, event, capture):
    """Listener entries for an event, filtered by capture flag."""
    return [
        entry
        for entry in element.listeners.get(event, [])
        if entry.capture == capture
    ]


class TestAttributes:
    def test_constructor_attributes(self):
        element = Element("div", {"id": "a", "class": "big"})
        assert element.get_attribute("id") == "a"
        assert element.has_attribute("class")

    def test_set_and_remove(self):
        element = Element("div")
        element.set_attribute("title", "x")
        assert element.get_attribute("title") == "x"
        element.remove_attribute("title")
        assert element.get_attribute("title") is None

    def test_tag_normalized_lowercase(self):
        assert Element("DIV").tag == "div"

    def test_style_parsed(self):
        element = Element("div", {"style": "display:none; color: red"})
        assert element.style["display"] == "none"
        assert element.style["color"] == "red"
        assert not element.visible

    def test_style_update_via_attribute(self):
        element = Element("div")
        assert element.visible
        element.set_attribute("style", "display:none")
        assert not element.visible


class TestIdentity:
    def test_id_key_uses_home_document(self):
        document = Document()
        element = document.create_element("div", {"id": "x"})
        assert element.element_key == ("id", document.doc_id, "x")

    def test_node_key_without_id(self):
        element = Element("div")
        assert element.element_key == ("node", element.node_id)

    def test_same_id_same_key(self):
        document = Document()
        first = document.create_element("div", {"id": "dw"})
        second = document.create_element("div", {"id": "dw"})
        assert first.element_key == second.element_key


class TestScriptFlags:
    def test_inline_script(self):
        script = Element("script")
        assert script.is_script and script.is_inline_script
        assert not script.is_external_script

    def test_external_sync(self):
        script = Element("script", {"src": "a.js"})
        assert script.is_external_script
        assert not script.is_async and not script.is_deferred

    def test_async(self):
        script = Element("script", {"src": "a.js", "async": "true"})
        assert script.is_async and not script.is_deferred

    def test_defer(self):
        script = Element("script", {"src": "a.js", "defer": "true"})
        assert script.is_deferred

    def test_bare_async_attribute(self):
        script = Element("script", {"src": "a.js", "async": "true"})
        assert script.is_async

    def test_async_false_is_sync(self):
        script = Element("script", {"src": "a.js", "async": "false"})
        assert not script.is_async


class TestFormState:
    def test_input_initial_value_from_attribute(self):
        element = Element("input", {"value": "seed"})
        assert element.value == "seed"

    def test_checked(self):
        assert Element("input", {"checked": ""}).checked
        assert not Element("input").checked

    def test_is_form_field(self):
        assert is_form_field(Element("input"))
        assert is_form_field(Element("textarea"))
        assert is_form_field(Element("select"))
        assert not is_form_field(Element("div"))


class TestLoadability:
    def test_loadable_tags(self):
        """img, script and iframe fire a load event once their resource
        arrives (rule 15 candidates); a div never does."""
        page = Browser(
            seed=0,
            resources={"a.png": "", "a.js": "var a = 1;", "f.html": "<p>f</p>"},
        ).load(
            '<img id="img" src="a.png"><script id="script" src="a.js"></script>'
            '<iframe id="iframe" src="f.html"></iframe><div id="div">x</div>'
        )
        fired = {
            tag: page.document.get_element_by_id(tag).load_fired
            for tag in ("img", "script", "iframe", "div")
        }
        assert fired == {"img": True, "script": True, "iframe": True, "div": False}


class TestHandlers:
    def test_attr_handler_slot(self):
        element = Element("img")
        element.set_attr_handler("load", "doWork()")
        assert element.get_attr_handler("load") == "doWork()"
        assert element.has_any_handler("load")
        element.remove_attr_handler("load")
        assert not element.has_any_handler("load")

    def test_listeners_by_capture_flag(self):
        element = Element("div")
        element.add_listener("click", "h1", capture=False)
        element.add_listener("click", "h2", capture=True)
        assert len(listeners_for(element, "click", capture=False)) == 1
        assert len(listeners_for(element, "click", capture=True)) == 1

    def test_remove_listener_by_identity(self):
        element = Element("div")
        handler = object()
        element.add_listener("click", handler)
        assert element.remove_listener("click", handler) is not None
        assert element.remove_listener("click", handler) is None
        assert not element.has_any_handler("click")

    def test_listener_entry_keys_distinct(self):
        element = Element("div")
        entry_a = element.add_listener("click", object())
        entry_b = element.add_listener("click", object())
        assert entry_a.handler_key != entry_b.handler_key


class TestChildHelpers:
    def test_element_children_skips_non_elements(self):
        document = Document()
        parent = document.create_element("div")
        child = document.create_element("span")
        parent.raw_append(child)
        assert parent.element_children() == [child]

    def test_element_descendants(self):
        document = Document()
        a = document.create_element("div")
        b = document.create_element("div")
        c = document.create_element("p")
        a.raw_append(b)
        b.raw_append(c)
        assert a.element_descendants() == [b, c]


def test_element_has_no_instance_dict():
    assert not hasattr(Element("div", {"id": "a"}), "__dict__")
