"""Tests for the JS <-> DOM bindings (host objects)."""

from repro.browser.page import Browser
from repro.core.locations import DomPropLocation, HandlerLocation


def load(html, **kwargs):
    return Browser(seed=0, **kwargs).load(html)


def g(page, name):
    return page.interpreter.global_object.get_own(name)


class TestElementProperties:
    def test_value_read_write(self):
        page = load(
            "<input id='f' value='seed'>"
            "<script>before = document.getElementById('f').value;"
            "document.getElementById('f').value = 'new';"
            "after = document.getElementById('f').value;</script>"
        )
        assert g(page, "before") == "seed"
        assert g(page, "after") == "new"

    def test_checked(self):
        page = load(
            "<input id='c' type='checkbox'>"
            "<script>var c = document.getElementById('c');"
            "was = c.checked; c.checked = true; now = c.checked;</script>"
        )
        assert g(page, "was") is False
        assert g(page, "now") is True

    def test_tag_name_and_id(self):
        page = load(
            "<div id='d'></div>"
            "<script>var d = document.getElementById('d');"
            "t = d.tagName; i = d.id;</script>"
        )
        assert g(page, "t") == "DIV"
        assert g(page, "i") == "d"

    def test_class_name(self):
        page = load(
            "<div id='d' class='a b'></div>"
            "<script>var d = document.getElementById('d');"
            "before = d.className; d.className = 'c'; after = d.className;</script>"
        )
        assert g(page, "before") == "a b"
        assert g(page, "after") == "c"

    def test_parent_and_children(self):
        page = load(
            "<div id='p'><span id='c1'></span><span id='c2'></span></div>"
            "<script>var p = document.getElementById('p');"
            "n = p.childNodes.length;"
            "firstTag = p.firstChild.tagName;"
            "parentOfChild = document.getElementById('c1').parentNode.id;</script>"
        )
        assert g(page, "n") == 2.0
        assert g(page, "firstTag") == "SPAN"
        assert g(page, "parentOfChild") == "p"

    def test_parent_of_detached_is_null(self):
        page = load(
            "<script>var e = document.createElement('div');"
            "isNull = e.parentNode == null;</script>"
        )
        assert g(page, "isNull") is True

    def test_style_object(self):
        page = load(
            "<div id='d' style='display:none'></div>"
            "<script>var d = document.getElementById('d');"
            "before = d.style.display; d.style.display = 'block';"
            "after = d.style.display;"
            "d.style.backgroundColor = 'red';</script>"
        )
        assert g(page, "before") == "none"
        assert g(page, "after") == "block"
        element = page.document.get_element_by_id("d")
        assert element.style["background-color"] == "red"

    def test_expando_properties(self):
        page = load(
            "<div id='d'></div>"
            "<script>var d = document.getElementById('d');"
            "d.customData = 42; got = d.customData;</script>"
        )
        assert g(page, "got") == 42.0

    def test_get_set_attribute(self):
        page = load(
            "<div id='d'></div>"
            "<script>var d = document.getElementById('d');"
            "d.setAttribute('data-x', '7');"
            "got = d.getAttribute('data-x');"
            "missing = d.getAttribute('nope');"
            "has = d.hasAttribute('data-x');"
            "d.removeAttribute('data-x');"
            "gone = d.hasAttribute('data-x');</script>"
        )
        assert g(page, "got") == "7"
        assert g(page, "missing") is not None  # NULL, not undefined
        assert g(page, "has") is True
        assert g(page, "gone") is False

    def test_binding_identity_stable(self):
        page = load(
            "<div id='d'></div>"
            "<script>same = document.getElementById('d') === document.getElementById('d');</script>"
        )
        assert g(page, "same") is True

    def test_scoped_get_elements_by_tag_name(self):
        page = load(
            "<div id='scope'><em></em><em></em></div><em></em>"
            "<script>n = document.getElementById('scope').getElementsByTagName('em').length;"
            "total = document.getElementsByTagName('em').length;</script>"
        )
        assert g(page, "n") == 2.0
        assert g(page, "total") == 3.0


class TestHandlerInstrumentation:
    def test_onclick_write_is_eloc_access(self):
        page = load(
            "<div id='d'></div>"
            "<script>document.getElementById('d').onclick = function() {};</script>"
        )
        writes = [
            access
            for access in page.trace.accesses
            if isinstance(access.location, HandlerLocation)
            and access.location.event == "click"
            and access.is_write
        ]
        assert writes

    def test_onclick_read_is_eloc_access(self):
        page = load(
            "<div id='d' onclick='x = 1;'></div>"
            "<script>h = document.getElementById('d').onclick;</script>"
        )
        reads = [
            access
            for access in page.trace.accesses
            if isinstance(access.location, HandlerLocation)
            and access.location.event == "click"
            and access.is_read
        ]
        assert reads

    def test_null_assignment_is_removal(self):
        page = load(
            "<div id='d' onclick='x = 1;'></div>"
            "<script>document.getElementById('d').onclick = null;</script>"
        )
        element = page.document.get_element_by_id("d")
        assert not element.has_any_handler("click")
        removals = [
            access
            for access in page.trace.accesses
            if isinstance(access.location, HandlerLocation)
            and access.detail.get("removal")
        ]
        assert removals

    def test_add_and_remove_event_listener(self):
        page = load(
            """
            <div id='d'></div>
            <script>
            var d = document.getElementById('d');
            var h = function() { hit = 1; };
            d.addEventListener('click', h);
            d.removeEventListener('click', h);
            d.click();
            </script>
            """
        )
        assert not page.interpreter.global_object.has_own("hit")

    def test_value_write_is_dom_prop_access(self):
        page = load(
            "<input id='f'>"
            "<script>document.getElementById('f').value = 'x';</script>"
        )
        writes = [
            access
            for access in page.trace.accesses
            if isinstance(access.location, DomPropLocation)
            and access.location.name == "value"
            and access.is_write
        ]
        assert writes
        assert writes[0].location.is_form_field_value


class TestDocumentBinding:
    def test_body_and_document_element(self):
        page = load(
            "<script>bodyTag = document.body.tagName;"
            "rootTag = document.documentElement.tagName;</script>"
        )
        assert g(page, "bodyTag") == "BODY"
        assert g(page, "rootTag") == "HTML"

    def test_collections(self):
        page = load(
            "<img src='a.png'><form id='f'></form>"
            "<script>ni = document.images.length; nf = document.forms.length;</script>",
            resources={"a.png": "b"},
        )
        assert g(page, "ni") == 1.0
        assert g(page, "nf") == 1.0

    def test_get_elements_by_name(self):
        page = load(
            "<input name='q'><input name='q'>"
            "<script>n = document.getElementsByName('q').length;</script>"
        )
        assert g(page, "n") == 2.0

    def test_cookie_roundtrip(self):
        page = load(
            "<script>document.cookie = 'k=v'; got = document.cookie;</script>"
        )
        assert g(page, "got") == "k=v"

    def test_ready_state(self):
        page = load(
            "<script>during = document.readyState;</script>"
        )
        assert g(page, "during") == "loading"
        assert page.document.dcl_fired

    def test_document_write_appends(self):
        page = load(
            "<script>document.write('<div id=written></div>');"
            "found = document.getElementById('written') != null;</script>"
        )
        assert g(page, "found") is True


class TestWindowBinding:
    def test_window_aliases_global(self):
        page = load(
            "<script>x = 5; viaWindow = window.x; window.y = 6;</script>"
            "<script>direct = y;</script>"
        )
        assert g(page, "viaWindow") == 5.0
        assert g(page, "direct") == 6.0

    def test_window_self_identity(self):
        page = load("<script>same = window === window.window;</script>")
        assert g(page, "same") is True

    def test_parent_of_root_is_itself(self):
        page = load("<script>rootParent = window.parent === window;</script>")
        assert g(page, "rootParent") is True

    def test_frames_array(self):
        page = load(
            "<iframe src='a.html'></iframe>"
            "<script>window.onload = function() { n = window.frames.length; };</script>",
            resources={"a.html": "<div></div>"},
        )
        assert g(page, "n") == 1.0

    def test_alert_captured(self):
        page = load("<script>alert('hello'); alert(42);</script>")
        assert page.alerts == ["hello", "42"]

    def test_window_onload_attr(self):
        page = load("<script>window.onload = function() { loaded = 1; };</script>")
        assert g(page, "loaded") == 1.0


class TestEventBinding:
    def test_event_properties_in_handler(self):
        page = load(
            """
            <div id='t'></div>
            <script>
            var t = document.getElementById('t');
            t.addEventListener('click', function(e) {
              type = e.type;
              targetId = e.target.id;
              same = e.currentTarget === t;
            });
            t.click();
            </script>
            """
        )
        assert g(page, "type") == "click"
        assert g(page, "targetId") == "t"
        assert g(page, "same") is True

    def test_this_is_current_target(self):
        page = load(
            """
            <div id='t'></div>
            <script>
            var t = document.getElementById('t');
            t.addEventListener('click', function() { thisIsT = this === t; });
            t.click();
            </script>
            """
        )
        assert g(page, "thisIsT") is True
