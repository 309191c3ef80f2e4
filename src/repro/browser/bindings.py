"""JavaScript bindings for browser objects.

Host objects implementing the :class:`~repro.js.values.HostObject` protocol
so scripts can touch ``window``, ``document``, DOM elements, styles, events
and ``XMLHttpRequest``.  Every property access that the paper's memory
model treats as a shared access is routed through the
:class:`~repro.browser.instrument.Monitor` here:

* element ``value``/``checked`` — DOM-property writes (Section 4.1);
* ``on<event>`` attributes and ``add/removeEventListener`` — ``Eloc``
  writes (Section 4.3);
* query APIs — ``HElem`` reads (via the Document's own instrumentation);
* unknown window properties — global-variable aliases (``window.x`` hits
  the same location as the global ``x``).

Bindings are cached per underlying object, so ``getElementById`` twice
returns the identical wrapper (JS ``===`` works).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..core.locations import ATTR_SLOT
from ..dom.document import Document
from ..dom.element import Element
from ..dom.events import Event
from ..js.errors import type_error
from ..js.interpreter import Interpreter, to_number, to_string
from ..js.values import (
    NULL,
    UNDEFINED,
    BoundMethod,
    HostObject,
    JSArray,
    JSObject,
    NativeFunction,
    is_callable,
)

#: Events for which `on<event>` element attributes are recognised.
KNOWN_EVENTS = frozenset(
    [
        "load", "unload", "error", "click", "dblclick", "mousedown", "mouseup",
        "mousemove", "mouseover", "mouseout", "keydown", "keyup", "keypress",
        "change", "input", "focus", "blur", "submit", "readystatechange",
    ]
)


def event_of_attr(name: str) -> Optional[str]:
    """``"onload"`` -> ``"load"`` if it's a known handler attribute."""
    if name.startswith("on") and name[2:] in KNOWN_EVENTS:
        return name[2:]
    return None


class Bindings:
    """Wrapper factory/cache for one page."""

    def __init__(self, page):
        self.page = page
        self._elements: Dict[int, "ElementBinding"] = {}
        self._documents: Dict[int, "DocumentBinding"] = {}
        self._windows: Dict[int, "WindowBinding"] = {}
        #: (id of receiver, name) -> its BoundMethod; the entry keeps the
        #: receiver alive, so the id is not reused while it is cached.
        self._methods: Dict[Tuple[int, str], BoundMethod] = {}

    @property
    def monitor(self):
        """The page's instrumentation monitor."""
        return self.page.monitor

    def element(self, element: Element) -> "ElementBinding":
        """The (cached) JS wrapper for a DOM element."""
        binding = self._elements.get(element.node_id)
        if binding is None:
            binding = ElementBinding(self.page, element)
            self._elements[element.node_id] = binding
        return binding

    def document(self, document: Document) -> "DocumentBinding":
        """The (cached) JS wrapper for a document."""
        binding = self._documents.get(document.doc_id)
        if binding is None:
            binding = DocumentBinding(self.page, document)
            self._documents[document.doc_id] = binding
        return binding

    def window(self, window) -> "WindowBinding":
        """The (cached) JS wrapper for a window."""
        binding = self._windows.get(window.window_id)
        if binding is None:
            binding = WindowBinding(self.page, window)
            self._windows[window.window_id] = binding
        return binding

    def wrap_node(self, node) -> Any:
        """Wrap an element or document; NULL for anything else."""
        if isinstance(node, Element):
            return self.element(node)
        if isinstance(node, Document):
            return self.document(node)
        return NULL

    def wrap_event(self, event: Event) -> "EventBinding":
        """A fresh JS event object for one dispatch."""
        return EventBinding(self.page, event)

    def method(self, receiver: HostObject, name: str, fn) -> BoundMethod:
        """``receiver.name`` as one BoundMethod per receiver and name, so
        JS ``===`` holds across reads.  Cached here, not on the receiver,
        where each receiver and its methods would form a reference cycle."""
        key = (id(receiver), name)
        method = self._methods.get(key)
        if method is None:
            method = self._methods[key] = BoundMethod(name, receiver, fn)
        return method


class ElementBinding(HostObject):
    """The JS view of a DOM element."""

    def __init__(self, page, element: Element):
        self.page = page
        self.element = element
        self._style: Optional[StyleBinding] = None
        #: Extra expando properties scripts may stash on DOM nodes.
        self._expando = JSObject()

    # -- reads -----------------------------------------------------------

    def js_get(self, name: str, interpreter: Interpreter) -> Any:
        """Instrumented property read on the element."""
        element = self.element
        monitor = self.page.monitor
        event = event_of_attr(name)
        if event is not None:
            monitor.handler_read(element.element_key, event)
            handler = element.get_attr_handler(event)
            return handler if handler is not None else NULL
        if name in ("value", "checked", "selectedIndex"):
            monitor.dom_prop_read(element, name)
            if name == "checked":
                return element.checked
            if name == "selectedIndex":
                return to_number(element.get_attribute("selectedindex") or 0)
            return element.value
        if name == "style":
            if self._style is None:
                self._style = StyleBinding(self.page, element)
            return self._style
        if name == "parentNode":
            monitor.dom_prop_read(element, "parentNode")
            parent = element.parent
            if parent is None:
                return NULL
            return self.page.bindings.wrap_node(parent)
        if name == "childNodes":
            monitor.dom_prop_read(element, "childNodes")
            return JSArray(
                [self.page.bindings.element(child) for child in element.element_children()]
            )
        if name == "firstChild":
            monitor.dom_prop_read(element, "childNodes")
            children = element.element_children()
            return self.page.bindings.element(children[0]) if children else NULL
        if name == "lastChild":
            monitor.dom_prop_read(element, "childNodes")
            children = element.element_children()
            return self.page.bindings.element(children[-1]) if children else NULL
        if name == "tagName" or name == "nodeName":
            return element.tag.upper()
        if name == "id":
            return element.element_id
        if name == "className":
            return element.get_attribute("class") or ""
        if name in ("src", "href", "name", "type", "title", "alt", "rel"):
            return element.get_attribute(name) or ""
        if name == "innerHTML":
            return element.text
        if name == "ownerDocument":
            return self.page.bindings.document(element.home_document)
        if name in ("offsetWidth", "offsetHeight", "clientWidth", "clientHeight"):
            return 100.0 if element.visible else 0.0
        if name == "complete":
            return element.load_fired
        methods = {
            "appendChild": _el_append_child,
            "removeChild": _el_remove_child,
            "insertBefore": _el_insert_before,
            "setAttribute": _el_set_attribute,
            "getAttribute": _el_get_attribute,
            "hasAttribute": _el_has_attribute,
            "removeAttribute": _el_remove_attribute,
            "addEventListener": _el_add_listener,
            "removeEventListener": _el_remove_listener,
            "getElementsByTagName": _el_by_tag,
            "click": _el_click,
            "focus": _el_focus,
            "blur": _el_blur,
        }
        if name in methods:
            return self.page.bindings.method(self, name, methods[name])
        # Expando properties land on a per-element JS object; reads and
        # writes are instrumented like any JSVar property access.
        self.page.monitor.prop_read(self._expando.object_id, name)
        return self._expando.lookup(name)

    # -- writes -----------------------------------------------------------

    def js_set(self, name: str, value: Any, interpreter: Interpreter) -> None:
        """Instrumented property write on the element."""
        element = self.element
        monitor = self.page.monitor
        event = event_of_attr(name)
        if event is not None:
            if value is NULL or value is UNDEFINED:
                element.remove_attr_handler(event)
                monitor.handler_write(
                    element.element_key, event, ATTR_SLOT, removal=True
                )
            else:
                element.set_attr_handler(event, value)
                monitor.handler_write(element.element_key, event, ATTR_SLOT)
            return
        if name in ("value", "checked"):
            monitor.dom_prop_write(element, name)
            if name == "checked":
                element.checked = bool(value)
            else:
                element.value = to_string(value)
            return
        if name in ("innerHTML", "text", "textContent"):
            if element.is_script or name != "innerHTML":
                # Script source (and plain text) is stored directly.
                element.text = to_string(value)
                return
            self.page.set_inner_html(element, to_string(value))
            return
        if name == "style":
            element.set_attribute("style", to_string(value))
            monitor.dom_prop_write(element, "style")
            return
        if name == "id":
            element.set_attribute("id", to_string(value))
            return
        if name == "className":
            element.set_attribute("class", to_string(value))
            return
        if name in ("src", "href", "name", "type", "title", "alt", "rel"):
            element.set_attribute(name, to_string(value))
            if name == "src":
                self.page.element_src_changed(element)
            return
        self.page.monitor.prop_write(
            self._expando.object_id, name, writes_function=is_callable(value)
        )
        self._expando.set_own(name, value)

    def js_has(self, name: str) -> bool:
        """`in` support for element wrappers."""
        return self._expando.has(name) or name in ("value", "style", "parentNode")

    def __repr__(self) -> str:
        return f"ElementBinding({self.element!r})"


# Element method implementations (receiver is the ElementBinding).


def _unwrap_element(value: Any, what: str) -> Element:
    if isinstance(value, ElementBinding):
        return value.element
    raise type_error(f"{what} requires a DOM node")


def _el_append_child(interp, binding: ElementBinding, args):
    child = _unwrap_element(args[0] if args else UNDEFINED, "appendChild")
    binding.page.insert_element(child, parent=binding.element)
    return binding.page.bindings.element(child)


def _el_insert_before(interp, binding: ElementBinding, args):
    child = _unwrap_element(args[0] if args else UNDEFINED, "insertBefore")
    reference = None
    if len(args) > 1 and isinstance(args[1], ElementBinding):
        reference = args[1].element
    binding.page.insert_element(child, parent=binding.element, before=reference)
    return binding.page.bindings.element(child)


def _el_remove_child(interp, binding: ElementBinding, args):
    child = _unwrap_element(args[0] if args else UNDEFINED, "removeChild")
    binding.page.remove_element(child)
    return binding.page.bindings.element(child)


def _el_set_attribute(interp, binding: ElementBinding, args):
    name = to_string(args[0]) if args else ""
    value = to_string(args[1]) if len(args) > 1 else ""
    element = binding.element
    event = event_of_attr(name)
    if event is not None:
        element.set_attr_handler(event, value)  # string source, compiled lazily
        binding.page.monitor.handler_write(element.element_key, event, ATTR_SLOT)
        return UNDEFINED
    element.set_attribute(name, value)
    if name in ("value", "checked"):
        binding.page.monitor.dom_prop_write(element, name)
    if name == "src":
        binding.page.element_src_changed(element)
    return UNDEFINED


def _el_get_attribute(interp, binding: ElementBinding, args):
    name = to_string(args[0]) if args else ""
    value = binding.element.get_attribute(name)
    return value if value is not None else NULL


def _el_has_attribute(interp, binding: ElementBinding, args):
    return binding.element.has_attribute(to_string(args[0]) if args else "")


def _el_remove_attribute(interp, binding: ElementBinding, args):
    binding.element.remove_attribute(to_string(args[0]) if args else "")
    return UNDEFINED


def _el_add_listener(interp, binding: ElementBinding, args):
    event = to_string(args[0]) if args else ""
    handler = args[1] if len(args) > 1 else UNDEFINED
    capture = bool(len(args) > 2 and args[2] is True)
    entry = binding.element.add_listener(event, handler, capture)
    binding.page.monitor.handler_write(
        binding.element.element_key, event, entry.handler_key
    )
    return UNDEFINED


def _el_remove_listener(interp, binding: ElementBinding, args):
    event = to_string(args[0]) if args else ""
    handler = args[1] if len(args) > 1 else UNDEFINED
    entry = binding.element.remove_listener(event, handler)
    if entry is not None:
        binding.page.monitor.handler_write(
            binding.element.element_key, event, entry.handler_key, removal=True
        )
    return UNDEFINED


def _el_by_tag(interp, binding: ElementBinding, args):
    tag = to_string(args[0]).lower() if args else "*"
    document = binding.element.home_document
    document.instrumentation.collection_read(document, "tag", tag)
    matches = [
        el
        for el in binding.element.element_descendants()
        if tag in ("*", el.tag)
    ]
    for el in matches:
        document.instrumentation.element_read(
            document, el.element_key, found=True, via="getElementsByTagName"
        )
    return JSArray([binding.page.bindings.element(el) for el in matches])


def _el_click(interp, binding: ElementBinding, args):
    binding.page.dispatcher.inline_dispatch("click", binding.element)
    return UNDEFINED


def _el_focus(interp, binding: ElementBinding, args):
    binding.page.dispatcher.inline_dispatch("focus", binding.element)
    return UNDEFINED


def _el_blur(interp, binding: ElementBinding, args):
    binding.page.dispatcher.inline_dispatch("blur", binding.element)
    return UNDEFINED


class StyleBinding(HostObject):
    """``element.style``: property reads/writes as DOM-prop accesses."""

    def __init__(self, page, element: Element):
        self.page = page
        self.element = element

    def js_get(self, name: str, interpreter: Interpreter) -> Any:
        """Read a CSS property (a DOM-prop read on `style`)."""
        self.page.monitor.dom_prop_read(self.element, "style")
        return self.element.style.get(_css_name(name), "")

    def js_set(self, name: str, value: Any, interpreter: Interpreter) -> None:
        """Write a CSS property (a DOM-prop write on `style`)."""
        self.page.monitor.dom_prop_write(self.element, "style")
        self.element.set_style(_css_name(name), to_string(value))

    def js_has(self, name: str) -> bool:
        """`in` support for style objects."""
        return _css_name(name) in self.element.style


def _css_name(name: str) -> str:
    """``backgroundColor`` -> ``background-color``."""
    out = []
    for ch in name:
        if ch.isupper():
            out.append("-")
            out.append(ch.lower())
        else:
            out.append(ch)
    return "".join(out)


class DocumentBinding(HostObject):
    """The JS view of a Document."""

    def __init__(self, page, document: Document):
        self.page = page
        self.document = document
        self._expando = JSObject()

    def js_get(self, name: str, interpreter: Interpreter) -> Any:
        """Instrumented property/method read on the document."""
        document = self.document
        if name == "body":
            document.ensure_root()
            return self.page.bindings.element(document.body)
        if name == "documentElement":
            document.ensure_root()
            return self.page.bindings.element(document.root_element)
        if name in ("forms", "images", "links", "anchors", "scripts"):
            elements = document.collection(name)
            return JSArray([self.page.bindings.element(el) for el in elements])
        if name in ("URL", "location"):
            return document.url
        if name == "cookie":
            self.page.monitor.dom_prop_read(_doc_cookie_carrier(document), "cookie")
            return getattr(document, "_cookie", "")
        if name == "readyState":
            return "complete" if document.dcl_fired else "loading"
        methods = {
            "getElementById": _doc_by_id,
            "getElementsByTagName": _doc_by_tag,
            "getElementsByName": _doc_by_name,
            "querySelector": _doc_query_selector,
            "querySelectorAll": _doc_query_selector_all,
            "createElement": _doc_create_element,
            "addEventListener": _doc_add_listener,
            "removeEventListener": _doc_remove_listener,
            "write": _doc_write,
        }
        if name in methods:
            return self.page.bindings.method(self, name, methods[name])
        self.page.monitor.prop_read(self._expando.object_id, name)
        return self._expando.lookup(name)

    def js_set(self, name: str, value: Any, interpreter: Interpreter) -> None:
        """Instrumented property write on the document."""
        if name == "cookie":
            self.page.monitor.dom_prop_write(_doc_cookie_carrier(self.document), "cookie")
            self.document._cookie = to_string(value)
            return
        if name == "title":
            self.document._title = to_string(value)
            return
        self.page.monitor.prop_write(
            self._expando.object_id, name, writes_function=is_callable(value)
        )
        self._expando.set_own(name, value)

    def js_has(self, name: str) -> bool:
        """`in` support for document wrappers."""
        return self._expando.has(name)

    def __repr__(self) -> str:
        return f"DocumentBinding({self.document!r})"


class _CookieCarrier:
    """Adapter giving document.cookie a DomProp-style location."""

    def __init__(self, document: Document):
        self.element_key = ("node", document.doc_id)
        self.tag = "document"
        self.node_id = document.doc_id


def _doc_cookie_carrier(document: Document) -> _CookieCarrier:
    carrier = getattr(document, "_cookie_carrier", None)
    if carrier is None:
        carrier = _CookieCarrier(document)
        document._cookie_carrier = carrier
    return carrier


def _doc_by_id(interp, binding: DocumentBinding, args):
    element_id = to_string(args[0]) if args else ""
    element = binding.document.get_element_by_id(element_id)
    if element is None:
        return NULL
    return binding.page.bindings.element(element)


def _doc_by_tag(interp, binding: DocumentBinding, args):
    tag = to_string(args[0]) if args else "*"
    elements = binding.document.get_elements_by_tag_name(tag)
    return JSArray([binding.page.bindings.element(el) for el in elements])


def _doc_by_name(interp, binding: DocumentBinding, args):
    name = to_string(args[0]) if args else ""
    elements = binding.document.get_elements_by_name(name)
    return JSArray([binding.page.bindings.element(el) for el in elements])


def _doc_query_selector(interp, binding: DocumentBinding, args):
    selector = to_string(args[0]) if args else ""
    element = binding.document.query_selector(selector)
    if element is None:
        return NULL
    return binding.page.bindings.element(element)


def _doc_query_selector_all(interp, binding: DocumentBinding, args):
    selector = to_string(args[0]) if args else ""
    elements = binding.document.query_selector_all(selector)
    return JSArray([binding.page.bindings.element(el) for el in elements])


def _doc_create_element(interp, binding: DocumentBinding, args):
    tag = to_string(args[0]) if args else "div"
    element = binding.document.create_element(tag)
    return binding.page.bindings.element(element)


def _doc_add_listener(interp, binding: DocumentBinding, args):
    event = to_string(args[0]) if args else ""
    handler = args[1] if len(args) > 1 else UNDEFINED
    document = binding.document
    from ..dom.element import ListenerEntry

    entry = ListenerEntry(handler=handler, capture=False)
    document.listeners.setdefault(event, []).append(entry)
    binding.page.monitor.handler_write(
        ("node", document.doc_id), event, entry.handler_key
    )
    return UNDEFINED


def _doc_remove_listener(interp, binding: DocumentBinding, args):
    event = to_string(args[0]) if args else ""
    handler = args[1] if len(args) > 1 else UNDEFINED
    entries = binding.document.listeners.get(event, [])
    for entry in entries:
        if entry.handler is handler:
            entries.remove(entry)
            binding.page.monitor.handler_write(
                ("node", binding.document.doc_id),
                event,
                entry.handler_key,
                removal=True,
            )
            break
    return UNDEFINED


def _doc_write(interp, binding: DocumentBinding, args):
    # document.write during load appends markup at the document end — a
    # simplification (real write() inserts at the parser position).
    html = "".join(to_string(arg) for arg in args)
    binding.page.append_markup(binding.document, html)
    return UNDEFINED


class WindowBinding(HostObject):
    """The JS view of a Window; unknown names alias the shared global."""

    def __init__(self, page, window):
        self.page = page
        self.window = window

    def js_get(self, name: str, interpreter: Interpreter) -> Any:
        """Window property read; unknown names alias the global object."""
        window = self.window
        page = self.page
        if name == "document":
            return page.bindings.document(window.document)
        if name in ("window", "self"):
            return self
        if name == "parent":
            return page.bindings.window(window.parent or window)
        if name == "top":
            return page.bindings.window(window.top)
        if name == "frames":
            return JSArray([page.bindings.window(frame) for frame in window.frames])
        if name == "location":
            return window.url
        if name == "onload" or (name.startswith("on") and name[2:] in KNOWN_EVENTS):
            event = name[2:]
            page.monitor.handler_read(window.element_key, event)
            handler = window.attr_handlers.get(event)
            return handler if handler is not None else NULL
        methods = {
            "setTimeout": _win_set_timeout,
            "setInterval": _win_set_interval,
            "clearTimeout": _win_clear_timeout,
            "clearInterval": _win_clear_interval,
            "addEventListener": _win_add_listener,
            "removeEventListener": _win_remove_listener,
            "alert": _win_alert,
        }
        if name in methods:
            return self.page.bindings.method(self, name, methods[name])
        if name == "XMLHttpRequest":
            return page.xhr_constructor
        # Fall back to the shared global object (window.x aliases global x).
        global_object = interpreter.global_object
        if name not in interpreter.uninstrumented_globals:
            page.monitor.prop_read(global_object.object_id, name)
        return global_object.lookup(name)

    def js_set(self, name: str, value: Any, interpreter: Interpreter) -> None:
        """Window property write; unknown names alias the global object."""
        window = self.window
        page = self.page
        if name.startswith("on") and name[2:] in KNOWN_EVENTS:
            event = name[2:]
            if value is NULL or value is UNDEFINED:
                window.attr_handlers.pop(event, None)
                page.monitor.handler_write(
                    window.element_key, event, ATTR_SLOT, removal=True
                )
            else:
                window.attr_handlers[event] = value
                page.monitor.handler_write(window.element_key, event, ATTR_SLOT)
            return
        global_object = interpreter.global_object
        if name not in interpreter.uninstrumented_globals:
            page.monitor.prop_write(
                global_object.object_id, name, writes_function=is_callable(value)
            )
        global_object.set_own(name, value)

    def js_has(self, name: str) -> bool:
        """`in` support for window wrappers."""
        if name in ("document", "window", "self", "parent", "top", "location"):
            return True
        return self.page.interpreter.global_object.has(name)

    def __repr__(self) -> str:
        return f"WindowBinding({self.window!r})"


def _win_set_timeout(interp, binding: WindowBinding, args):
    callback = args[0] if args else UNDEFINED
    delay = to_number(args[1]) if len(args) > 1 else 0.0
    return float(binding.page.set_timeout(callback, delay))


def _win_set_interval(interp, binding: WindowBinding, args):
    callback = args[0] if args else UNDEFINED
    delay = to_number(args[1]) if len(args) > 1 else 0.0
    return float(binding.page.set_interval(callback, delay))


def _win_clear_timeout(interp, binding: WindowBinding, args):
    if args:
        binding.page.clear_timer(int(to_number(args[0])))
    return UNDEFINED


def _win_clear_interval(interp, binding: WindowBinding, args):
    if args:
        binding.page.clear_timer(int(to_number(args[0])))
    return UNDEFINED


def _win_add_listener(interp, binding: WindowBinding, args):
    event = to_string(args[0]) if args else ""
    handler = args[1] if len(args) > 1 else UNDEFINED
    from ..dom.element import ListenerEntry

    entry = ListenerEntry(handler=handler, capture=False)
    binding.window.listeners.setdefault(event, []).append(entry)
    binding.page.monitor.handler_write(
        binding.window.element_key, event, entry.handler_key
    )
    return UNDEFINED


def _win_remove_listener(interp, binding: WindowBinding, args):
    event = to_string(args[0]) if args else ""
    handler = args[1] if len(args) > 1 else UNDEFINED
    entries = binding.window.listeners.get(event, [])
    for entry in entries:
        if entry.handler is handler:
            entries.remove(entry)
            binding.page.monitor.handler_write(
                binding.window.element_key, event, entry.handler_key, removal=True
            )
            break
    return UNDEFINED


def _win_alert(interp, binding: WindowBinding, args):
    binding.page.alerts.append(to_string(args[0]) if args else "undefined")
    return UNDEFINED


class EventBinding(HostObject):
    """The JS view of a dispatched event.

    One binding is shared by all handler executions of a dispatch so that
    ``stopPropagation()`` (skip handlers at *other* targets) and
    ``preventDefault()`` (suppress the default action, e.g. following a
    ``javascript:`` href) behave like the DOM spec describes.
    """

    def __init__(self, page, event: Event):
        self.page = page
        self.event = event
        self.current_target: Any = None
        self.propagation_stopped = False
        #: The target whose handler called stopPropagation (its remaining
        #: same-target handlers still run; stopImmediatePropagation stops
        #: everything).
        self.stopped_at: Any = None
        self.immediate_stop = False
        self.default_prevented = False

    def js_get(self, name: str, interpreter: Interpreter) -> Any:
        """Event property read (type/target/currentTarget/methods)."""
        if name == "type":
            return self.event.type
        if name == "target" or name == "srcElement":
            target = self.event.target
            if isinstance(target, Element):
                return self.page.bindings.element(target)
            return NULL
        if name == "currentTarget":
            return self.current_target if self.current_target is not None else NULL
        if name == "defaultPrevented":
            return self.default_prevented
        if name == "preventDefault":
            return NativeFunction(name, self._prevent_default)
        if name == "stopPropagation":
            return NativeFunction(name, self._stop_propagation)
        if name == "stopImmediatePropagation":
            return NativeFunction(name, self._stop_immediate)
        return UNDEFINED

    def _prevent_default(self, interp, this, args):
        self.default_prevented = True
        return UNDEFINED

    def _stop_propagation(self, interp, this, args):
        self.propagation_stopped = True
        self.stopped_at = self.current_target
        return UNDEFINED

    def _stop_immediate(self, interp, this, args):
        self.propagation_stopped = True
        self.stopped_at = self.current_target
        self.immediate_stop = True
        return UNDEFINED

    def js_set(self, name: str, value: Any, interpreter: Interpreter) -> None:
        """Event objects are read-only; writes are ignored."""
        pass  # event objects are effectively read-only here

    def __repr__(self) -> str:
        return f"EventBinding({self.event!r})"
