"""Browser and page loading.

:class:`Browser` owns the per-run machinery (virtual clock, event loop,
scheduler, network simulator, instrumentation monitor) and
:class:`Page` orchestrates one page load the way a real engine does
(paper, Section 2.1): HTML parsing and script execution interleave on a
single thread, sub-resources load asynchronously with seeded latencies,
timers and user events slot in between parse steps.

Per-document sequencing lives in :class:`DocumentLoader` (one per window:
the root page and every iframe), which implements the script-scheduling
rules the happens-before relation formalizes:

* static **inline** scripts run during parsing (rules 1b, 13);
* **synchronous** external scripts block the parser until fetched,
  executed, and their load event dispatched (rules 1c, 3, 14);
* **async** scripts run whenever their fetch lands (rules 2, 3, 15 only);
* **deferred** scripts run after static parsing, in syntactic order,
  before DOMContentLoaded (rules 4, 5, 14);
* **script-inserted** external scripts behave like async ones, and
  script-inserted inline scripts execute synchronously inside the
  inserting operation (Section 3.3, footnote 9);
* iframes load their documents asynchronously (rules 6, 7);
* DOMContentLoaded fires when static parsing and deferred scripts are
  done (rules 11-14); window ``load`` fires once every tracked
  sub-resource created before it has loaded (rule 15).
"""

from __future__ import annotations

import functools
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.operations import CB, CBI, EXE, PARSE
from ..core.hb import rules as R
from ..dom.document import Document
from ..dom.element import Element
from ..html.parser import IncrementalHtmlParser, clear_token_cache
from ..html.tokenizer import tokenize_html, StartTag, EndTag, Text as TextToken
from ..js.builtins import install_builtins
from ..js.ast import Program
from ..js.errors import JSErrorValue, JSSyntaxError, JSThrow
from ..js.interpreter import BudgetExceeded, Interpreter, to_string
from ..js import parser as js_parser
from ..dom.node import reset_node_ids
from ..js.values import (
    JSFunction,
    JSObject,
    NativeFunction,
    UNDEFINED,
    NULL,
    is_callable,
    reset_value_ids,
)
from .bindings import Bindings, event_of_attr
from .clock import VirtualClock
from .dispatcher import Dispatcher
from .event_loop import EventLoop
from .exploration import AutoExplorer
from .instrument import Monitor
from .network import (
    DEFAULT_BANDWIDTH,
    DEFAULT_CONNECTIONS_PER_ORIGIN,
    DEFAULT_RTT,
    FetchResult,
    make_network,
)
from .scheduler import Scheduler, make_scheduler
from .timers import TimerEntry, TimerRegistry
from .window import Window, reset_window_ids
from .xhr import XhrBinding, make_xhr_constructor
from ..obs import NULL as NULL_OBS

#: Virtual milliseconds consumed by parsing one element.
PARSE_STEP_MS = 0.5

#: Scripts the parse cache holds.  Every run of a page parses its scripts
#: in the same order, so an LRU smaller than a page's distinct scripts
#: evicts each one before it comes round again and never hits; the
#: largest benchmark page has 23.
PARSE_CACHE_SIZE = 64

#: :func:`repro.js.parser.parse` memoized by source text.  explore and
#: predict run every page 8-16 times (schedules, replays, witness runs),
#: and one AST serves them all because nothing mutates AST nodes after
#: parsing.  Exceptions are not cached: a broken script fails, and is
#: recorded as a crash, on every run.  Each corpus check, exploration and
#: prediction empties the cache first (:func:`clear_parse_cache`), as a
#: new process would, so its cost does not depend on what ran before it
#: in the process.
parse_js = functools.lru_cache(maxsize=PARSE_CACHE_SIZE)(js_parser.parse)
#: Bound here so that code which wraps ``parse_js`` (a tracer, a test)
#: still leaves the real cache reachable.
_clear_script_cache = parse_js.cache_clear


def clear_parse_cache() -> None:
    """Empty the script cache and the HTML token cache
    (:func:`repro.html.parser.clear_token_cache`)."""
    _clear_script_cache()
    clear_token_cache()


class Browser:
    """A fresh engine instance: one Browser per page load experiment."""

    def __init__(
        self,
        seed: int = 0,
        scheduler: Any = "fifo",
        resources: Optional[Dict[str, str]] = None,
        latencies: Optional[Dict[str, float]] = None,
        instrument: bool = True,
        tie_window: Optional[float] = None,
        network: str = "uniform",
        sizes: Optional[Dict[str, float]] = None,
        bandwidth: float = DEFAULT_BANDWIDTH,
        rtt: float = DEFAULT_RTT,
        connections_per_origin: int = DEFAULT_CONNECTIONS_PER_ORIGIN,
        obs=None,
    ):
        # One Browser is one page-load experiment: restart the allocation
        # id spaces (objects, cells, DOM nodes, windows) so every run of a
        # page is deterministic in (page, seed) alone.  Without this, ids
        # leak cross-page process history into traces and evidence, and a
        # sharded corpus worker could never reproduce a sequential run.
        reset_value_ids()
        reset_node_ids()
        reset_window_ids()
        self.seed = seed
        self.obs = obs if obs is not None else NULL_OBS
        self.clock = VirtualClock()
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler, seed=seed)
        if not isinstance(scheduler, Scheduler):
            raise TypeError(f"not a scheduler: {scheduler!r}")
        if tie_window is None:
            self.loop = EventLoop(self.clock, scheduler, obs=self.obs)
        else:
            self.loop = EventLoop(
                self.clock, scheduler, tie_window=tie_window, obs=self.obs
            )
        self.network = make_network(
            self.loop,
            model=network,
            resources=resources,
            seed=seed,
            latencies=latencies,
            sizes=sizes,
            bandwidth=bandwidth,
            rtt=rtt,
            connections_per_origin=connections_per_origin,
        )
        self.monitor = Monitor(enabled=instrument, obs=self.obs)

    def open(self, html: str, url: str = "page.html") -> "Page":
        """Create a page and schedule its load (call :meth:`Page.run`)."""
        return Page(self, html, url)

    def load(self, html: str, url: str = "page.html") -> "Page":
        """Create a page and run it to completion."""
        page = self.open(html, url)
        page.run()
        return page


class DocumentLoader:
    """Load state machine for one document (root page or iframe)."""

    def __init__(
        self,
        page: "Page",
        window: Window,
        html: str,
        iframe_element: Optional[Element] = None,
        iframe_create_op: Optional[int] = None,
    ):
        self.page = page
        self.window = window
        self.document = window.document
        self.parser = IncrementalHtmlParser(self.document, html)
        self.iframe_element = iframe_element
        #: Ops that must happen-before the next parse op, with rule labels.
        self.barrier: List[Tuple[int, str]] = []
        if iframe_create_op is not None:
            self.barrier.append((iframe_create_op, R.RULE_6))
        self.last_parse_op: Optional[int] = None
        self.static_done = False
        self.blocked_on_script = False
        #: Deferred-script queue entries (dicts, FIFO).
        self.deferred: List[dict] = []
        self.deferred_ld_ops: List[List[int]] = []
        self.dcl_fired = False
        self.dcl_ops: List[int] = []
        self.pending_loads = 0
        #: Element-load dispatch op sets for rule 15.
        self.load_dispatches: List[List[int]] = []
        #: create ops of script-inserted elements, for rule 4.
        self.dynamic_creates: List[int] = []
        self.window_load_ops: List[int] = []

    # ------------------------------------------------------------------

    def note_pending(self) -> None:
        """One more sub-resource gates this window's load event."""
        self.pending_loads += 1

    def resource_loaded(self) -> None:
        """A gating sub-resource finished; maybe fire window load."""
        self.pending_loads -= 1
        self.page._maybe_fire_window_load(self)

    def note_element_load(self, ops: List[int]) -> None:
        """Remember an element-load dispatch for rule 15."""
        if not self.window.load_fired:
            self.load_dispatches.append(list(ops))


class Page:
    """One loaded (or loading) web page with full instrumentation."""

    def __init__(self, browser: Browser, html: str, url: str = "page.html"):
        self.browser = browser
        self.loop = browser.loop
        self.clock = browser.clock
        self.network = browser.network
        self.monitor = browser.monitor
        self.obs = browser.obs
        self.url = url

        self.bindings = Bindings(self)
        self.dispatcher = Dispatcher(self)
        self.timers = TimerRegistry(self.loop)
        self.alerts: List[str] = []
        self.console: List[str] = []

        # One shared JS global across all frames (see DESIGN.md).
        self.interpreter = Interpreter(
            global_object=JSObject(), hooks=self.monitor
        )
        install_builtins(
            self.interpreter,
            rng=random.Random(browser.seed ^ 0x5EED),
            console_log=self.console,
        )
        self.xhr_constructor = make_xhr_constructor(self)

        # Root window/document.
        document = Document(url)
        document.instrumentation = self.monitor
        self.window = Window(document, parent=None, url=url)
        self.document = document
        self.interpreter.this_value = self.bindings.window(self.window)

        self._install_globals()

        self.loaders: Dict[int, DocumentLoader] = {}
        self._compiled_handlers: Dict[str, JSFunction] = {}
        self.auto_explore = False
        self.eager_explore = False
        self.explorer = AutoExplorer(self)
        self._root_loaded = False

        self._root_loader = self._start_document(self.window, html)

    # ------------------------------------------------------------------
    # global environment

    def _install_globals(self) -> None:
        interp = self.interpreter
        g = interp.global_object

        def define(name: str, value: Any) -> None:
            g.set_own(name, value)
            interp.uninstrumented_globals.add(name)

        window_binding = self.bindings.window(self.window)
        define("window", window_binding)
        define("self", window_binding)
        define("document", self.bindings.document(self.document))
        define("XMLHttpRequest", self.xhr_constructor)
        define(
            "alert",
            NativeFunction(
                "alert",
                lambda i, t, a: (self.alerts.append(to_string(a[0]) if a else "undefined"), UNDEFINED)[1],
            ),
        )
        define(
            "setTimeout",
            NativeFunction(
                "setTimeout",
                lambda i, t, a: float(
                    self.set_timeout(a[0] if a else UNDEFINED, _num(a, 1))
                ),
            ),
        )
        define(
            "setInterval",
            NativeFunction(
                "setInterval",
                lambda i, t, a: float(
                    self.set_interval(a[0] if a else UNDEFINED, _num(a, 1))
                ),
            ),
        )
        define(
            "clearTimeout",
            NativeFunction(
                "clearTimeout",
                lambda i, t, a: (self.clear_timer(int(_num(a, 0))), UNDEFINED)[1],
            ),
        )
        define(
            "clearInterval",
            NativeFunction(
                "clearInterval",
                lambda i, t, a: (self.clear_timer(int(_num(a, 0))), UNDEFINED)[1],
            ),
        )

        def get_by_id(interp_, this, args):
            element = self.document.get_element_by_id(
                to_string(args[0]) if args else ""
            )
            if element is None:
                return NULL
            return self.bindings.element(element)

        # The `$get` helper seen in the paper's Fig. 3 (a common site idiom).
        define("$get", NativeFunction("$get", get_by_id))

        # Date, backed by the virtual clock (monitoring scripts like Gomez
        # measure load times; their timings must be the simulation's).
        def js_date(interp_, this, args):
            from ..js.values import JSObject

            instance = JSObject()
            now = self.clock.now
            instance.set_own(
                "getTime", NativeFunction("getTime", lambda i, t, a: now)
            )
            instance.set_own("valueOf", NativeFunction("valueOf", lambda i, t, a: now))
            return instance

        date_fn = NativeFunction("Date", js_date)
        date_fn.set_own(
            "now", NativeFunction("now", lambda i, t, a: self.clock.now)
        )
        define("Date", date_fn)

    # ------------------------------------------------------------------
    # document loading

    def _start_document(
        self,
        window: Window,
        html: str,
        iframe_element: Optional[Element] = None,
        iframe_create_op: Optional[int] = None,
    ) -> DocumentLoader:
        window.document.instrumentation = self.monitor
        loader = DocumentLoader(
            self, window, html, iframe_element, iframe_create_op
        )
        self.loaders[window.document.doc_id] = loader
        self._schedule_parse(loader)
        return loader

    def _schedule_parse(self, loader: DocumentLoader) -> None:
        self.loop.post(
            lambda: self._parse_step(loader),
            delay=PARSE_STEP_MS,
            kind="parse",
            label=f"parse {loader.document.url}",
        )

    def _parse_step(self, loader: DocumentLoader) -> None:
        if loader.blocked_on_script:
            return
        unit = loader.parser.next_unit()
        if unit is None:
            self._finish_static_parse(loader)
            return
        element = unit.element
        label = f"parse(<{element.tag}"
        if element.attributes.get("id"):
            label += f" id={element.attributes['id']}"
        label += ">)"
        op = self.monitor.new_operation(PARSE, label=label)
        graph = self.monitor.graph
        if loader.last_parse_op is not None:
            graph.add_edge(loader.last_parse_op, op.op_id, R.RULE_1A)
        for src, rule in loader.barrier:
            graph.add_edge(src, op.op_id, rule)
        loader.barrier = []
        loader.last_parse_op = op.op_id

        self.monitor.begin_operation(op)
        try:
            with self.obs.span("parse.step", cat="html", label=label):
                unit.commit(loader.document)
                self._process_handler_attributes(element)
        finally:
            self.monitor.end_operation(op)

        blocked = self._after_parse(loader, element, op.op_id)
        if self.eager_explore:
            self.explorer.consider_eager(element)
        if not blocked:
            self._schedule_parse(loader)

    def _process_handler_attributes(self, element: Element) -> None:
        """on<event> content attributes are Eloc writes (Section 4.3)."""
        for name, value in list(element.attributes.items()):
            event = event_of_attr(name)
            if event is not None:
                element.set_attr_handler(event, value)
                self.monitor.handler_write(element.element_key, event)

    def _after_parse(
        self, loader: DocumentLoader, element: Element, parse_op: int
    ) -> bool:
        """Kick off per-tag load behaviour; True if parsing must block."""
        if element.is_script:
            return self._handle_static_script(loader, element, parse_op)
        if element.tag == "img" and element.get_attribute("src"):
            self._start_image(loader, element)
            return False
        if element.tag == "iframe" and element.get_attribute("src"):
            self._start_iframe(loader, element, parse_op)
            return False
        return False

    def _finish_static_parse(self, loader: DocumentLoader) -> None:
        if loader.static_done:
            return
        loader.static_done = True
        # The end-of-parse barrier (last inline exe / sync ld) feeds the
        # DOMContentLoaded edges together with the last parse op.
        self._maybe_run_deferred(loader)

    # ------------------------------------------------------------------
    # scripts

    def _handle_static_script(
        self, loader: DocumentLoader, element: Element, parse_op: int
    ) -> bool:
        if element.is_inline_script:
            exe_op = self.execute_script(
                element, create_op=parse_op, source=element.text, static=True
            )
            loader.barrier.append((exe_op, R.RULE_1B))
            return False
        src = element.get_attribute("src") or ""
        if element.is_deferred:
            entry = {
                "element": element,
                "create_op": parse_op,
                "content": None,
                "ready": False,
                "ok": True,
            }
            loader.deferred.append(entry)
            loader.note_pending()

            def on_deferred(result: FetchResult, entry=entry) -> None:
                entry["content"] = result.content
                entry["ok"] = result.ok
                entry["ready"] = True
                self._maybe_run_deferred(loader)

            self.network.fetch(src, on_deferred)
            return False
        if element.is_async:
            loader.note_pending()

            def on_async(result: FetchResult) -> None:
                if result.ok:
                    exe_op = self.execute_script(
                        element,
                        create_op=parse_op,
                        source=result.content,
                        static=True,
                        delayed=True,
                    )
                    ld = self._dispatch_element_load(
                        loader, element, exe_op=exe_op
                    )
                else:
                    ld = self._dispatch_element_error(loader, element)
                loader.resource_loaded()

            self.network.fetch(src, on_async)
            return False
        # Synchronous external script: block parsing.
        loader.blocked_on_script = True
        loader.note_pending()

        def on_sync(result: FetchResult) -> None:
            if result.ok:
                exe_op = self.execute_script(
                    element, create_op=parse_op, source=result.content, static=True
                )
                ld_ops = self._dispatch_element_load(loader, element, exe_op=exe_op)
            else:
                ld_ops = self._dispatch_element_error(loader, element)
            loader.barrier.extend((op, R.RULE_1C) for op in ld_ops)
            loader.blocked_on_script = False
            loader.resource_loaded()
            self._schedule_parse(loader)

        self.network.fetch(src, on_sync)
        return True

    def execute_script(
        self,
        element: Optional[Element],
        create_op: int,
        source: str,
        static: bool = True,
        delayed: bool = False,
    ) -> int:
        """Run script source as an ``exe(E)`` operation (rule 2)."""
        label = "exe(<script"
        if element is not None:
            src = element.get_attribute("src")
            if src:
                label += f" src={src}"
            if element.element_id:
                label += f" id={element.element_id}"
        label += ">)"
        meta = {"delayed_script": True} if delayed else {}
        op = self.monitor.new_operation(EXE, label=label, meta=meta)
        self.monitor.graph.add_edge(create_op, op.op_id, R.RULE_2)
        self.monitor.begin_operation(op)
        try:
            with self.obs.span("script.exe", cat="js", label=label):
                self.run_source_in_current_op(source, where=label)
        finally:
            self.monitor.end_operation(op)
        return op.op_id

    def _parse_script(self, source: str, where: str) -> Optional[Program]:
        """Parse ``source``, or record why it cannot run and return None.

        A syntax error, or nesting deeper than the parser can recurse, is
        the script's crash: the script does not run at all.
        """
        try:
            return parse_js(source)
        except JSSyntaxError as error:
            crash = error
        except RecursionError:
            crash = JSSyntaxError("nesting too deep to parse")
        self.monitor.record_crash(crash, where=where)
        return None

    def _run_script(self, where: str, run: Callable[..., Any], *args: Any) -> None:
        """Call ``run(*args)`` on a fresh step budget, hiding a crash.

        A thrown error terminates the script but every mutation it made
        persists — the paper's "hidden crashes" (Section 2.3).  Running
        out of Python stack is the script overflowing its call stack,
        which browsers report as a ``RangeError``; JS ``try`` cannot
        catch it here.
        """
        self.interpreter.reset_budget()
        try:
            run(*args)
        except JSThrow as thrown:
            self.monitor.record_crash(thrown.value, where=where)
        except BudgetExceeded as error:
            self.monitor.record_crash(error, where=where)
        except RecursionError:
            overflow = JSErrorValue("RangeError", "Maximum call stack size exceeded")
            self.monitor.record_crash(overflow, where=where)

    def run_source_in_current_op(self, source: str, where: str = "script") -> None:
        """Parse and execute JS inside the current operation, hiding crashes."""
        program = self._parse_script(source, where)
        if program is not None:
            interpreter = self.interpreter
            self._run_script(
                where,
                interpreter.execute_body,
                program.body,
                interpreter.global_scope,
                interpreter.this_value,
            )

    def run_handler_value(
        self, handler: Any, current_target: Any, event, event_binding=None
    ) -> None:
        """Execute an event handler (JS function or attribute source)."""
        fn = handler
        if isinstance(handler, str):
            fn = self.compile_handler(handler)
            if fn is None:
                return
        if not is_callable(fn):
            return
        this = self._wrap_target(current_target)
        if event_binding is None:
            event_binding = self.bindings.wrap_event(event)
        event_binding.current_target = this
        self._run_script(
            f"handler for {event.type}",
            self.interpreter.call_function,
            fn,
            this,
            [event_binding],
        )

    def compile_handler(self, source: str) -> Optional[JSFunction]:
        """Compile (and cache) an attribute-handler source string."""
        fn = self._compiled_handlers.get(source)
        if fn is None:
            program = self._parse_script(source, "handler attribute")
            if program is None:
                return None
            fn = JSFunction(
                None, ["event"], program.body, self.interpreter.global_scope
            )
            self._compiled_handlers[source] = fn
        return fn

    def _wrap_target(self, target: Any) -> Any:
        if isinstance(target, Element):
            return self.bindings.element(target)
        if isinstance(target, Document):
            return self.bindings.document(target)
        if isinstance(target, Window):
            return self.bindings.window(target)
        return target  # XhrBinding is already a host object

    # ------------------------------------------------------------------
    # sub-resources

    def _dispatch_element_load(
        self, loader: DocumentLoader, element: Element, exe_op: Optional[int] = None
    ) -> List[int]:
        extra = [(exe_op, R.RULE_3)] if exe_op is not None else None
        result = self.dispatcher.dispatch("load", element, extra_sources=extra)
        element.load_fired = True
        loader.note_element_load(result.all_ops)
        return result.all_ops

    def _dispatch_element_error(
        self, loader: DocumentLoader, element: Element
    ) -> List[int]:
        result = self.dispatcher.dispatch("error", element)
        loader.note_element_load(result.all_ops)
        return result.all_ops

    def _start_image(self, loader: DocumentLoader, element: Element) -> None:
        # An image inserted after window load fetches and dispatches its
        # load/error event without gating anything.
        blocks_load = not loader.window.load_fired
        if blocks_load:
            loader.note_pending()
        src = element.get_attribute("src") or ""

        def on_image(result: FetchResult) -> None:
            if result.ok:
                self._dispatch_element_load(loader, element)
            else:
                self._dispatch_element_error(loader, element)
            if blocks_load:
                loader.resource_loaded()

        self.network.fetch(src, on_image)

    def _start_iframe(
        self, loader: DocumentLoader, element: Element, create_op: int
    ) -> None:
        loader.note_pending()
        src = element.get_attribute("src") or ""

        def on_iframe(result: FetchResult) -> None:
            child_document = Document(src)
            child_window = Window(child_document, parent=loader.window, url=src)
            child_window.frame_element = element
            self._start_document(
                child_window,
                result.content if result.ok else "",
                iframe_element=element,
                iframe_create_op=create_op,
            )

        self.network.fetch(src, on_iframe)

    # ------------------------------------------------------------------
    # deferred scripts, DOMContentLoaded, window load

    def _maybe_run_deferred(self, loader: DocumentLoader) -> None:
        if not loader.static_done or loader.dcl_fired:
            return
        while loader.deferred and loader.deferred[0]["ready"]:
            entry = loader.deferred.pop(0)
            element = entry["element"]
            if entry["ok"]:
                exe_op_obj = self.monitor.new_operation(
                    EXE, label=f"exe(<script defer src={element.get_attribute('src')}>)"
                )
                graph = self.monitor.graph
                graph.add_edge(entry["create_op"], exe_op_obj.op_id, R.RULE_2)
                # Rule 4: everything created before DOMContentLoaded precedes
                # a deferred script's execution.  Static parse ops form a
                # rule-1a chain, so the last one dominates them all.
                if loader.last_parse_op is not None:
                    graph.add_edge(loader.last_parse_op, exe_op_obj.op_id, R.RULE_4)
                for dyn_create in loader.dynamic_creates:
                    if dyn_create < exe_op_obj.op_id:
                        graph.add_edge(dyn_create, exe_op_obj.op_id, R.RULE_4)
                # Rule 5: deferred scripts execute in syntactic order.
                if loader.deferred_ld_ops:
                    for op_id in loader.deferred_ld_ops[-1]:
                        graph.add_edge(op_id, exe_op_obj.op_id, R.RULE_5)
                self.monitor.begin_operation(exe_op_obj)
                try:
                    with self.obs.span(
                        "script.exe", cat="js", label=exe_op_obj.label
                    ):
                        self.run_source_in_current_op(
                            entry["content"], where="deferred script"
                        )
                finally:
                    self.monitor.end_operation(exe_op_obj)
                ld_ops = self._dispatch_element_load(
                    loader, element, exe_op=exe_op_obj.op_id
                )
                loader.deferred_ld_ops.append(ld_ops)
            else:
                ld_ops = self._dispatch_element_error(loader, element)
                loader.deferred_ld_ops.append(ld_ops)
            loader.resource_loaded()
        if not loader.deferred:
            self._fire_dcl(loader)

    def _fire_dcl(self, loader: DocumentLoader) -> None:
        if loader.dcl_fired:
            return
        loader.dcl_fired = True
        extra: List[Tuple[int, str]] = []
        if loader.last_parse_op is not None:
            extra.append((loader.last_parse_op, R.RULE_12))
        # End-of-parse barrier: a trailing inline script's exe (rule 13) or
        # a trailing sync script's load ops (rule 14) must precede DCL.
        for op, rule in loader.barrier:
            if rule == R.RULE_1B:
                extra.append((op, R.RULE_13))
            elif rule == R.RULE_1C:
                extra.append((op, R.RULE_14))
            else:
                extra.append((op, rule))
        for ld_ops in loader.deferred_ld_ops:
            extra.extend((op, R.RULE_14) for op in ld_ops)
        result = self.dispatcher.dispatch(
            "DOMContentLoaded", loader.document, extra_sources=extra
        )
        loader.dcl_ops = result.all_ops
        loader.document.dcl_fired = True
        self._maybe_fire_window_load(loader)

    def _maybe_fire_window_load(self, loader: DocumentLoader) -> None:
        window = loader.window
        if window.load_fired:
            return
        if not (loader.static_done and loader.dcl_fired):
            return
        if loader.pending_loads > 0:
            return
        window.load_fired = True
        extra: List[Tuple[int, str]] = [(op, R.RULE_11) for op in loader.dcl_ops]
        for ld_ops in loader.load_dispatches:
            extra.extend((op, R.RULE_15) for op in ld_ops)
        result = self.dispatcher.dispatch("load", window, extra_sources=extra)
        loader.window_load_ops = result.all_ops

        if loader.iframe_element is not None:
            # Rule 7: the nested window's load precedes the iframe's load.
            parent_document = loader.iframe_element.home_document
            parent_loader = self.loaders.get(parent_document.doc_id)
            iframe_extra = [(op, R.RULE_7) for op in result.all_ops]
            iframe_result = self.dispatcher.dispatch(
                "load", loader.iframe_element, extra_sources=iframe_extra
            )
            loader.iframe_element.load_fired = True
            if parent_loader is not None:
                parent_loader.note_element_load(iframe_result.all_ops)
                parent_loader.resource_loaded()
        else:
            self._on_root_loaded()

    def _on_root_loaded(self) -> None:
        if self._root_loaded:
            return
        self._root_loaded = True
        if self.auto_explore:

            def run_explore() -> None:
                with self.obs.span("explore.queue", cat="explore"):
                    self.explorer.explore()
                if self.obs.enabled:
                    self.obs.count(
                        "explore.interactions", len(self.explorer.dispatched)
                    )

            self.loop.post(
                run_explore, delay=1.0, kind="user", label="auto-explore"
            )

    # ------------------------------------------------------------------
    # timers

    def set_timeout(self, callback: Any, delay: float) -> int:
        """JS setTimeout: schedule a cb(E) operation (rule 16)."""
        creator = self.monitor.current_id()
        timer_id = self.timers.set_timeout(callback, delay, creator, self._fire_timer)
        self.monitor.timer_slot_write(timer_id)
        return timer_id

    def set_interval(self, callback: Any, delay: float) -> int:
        """JS setInterval: schedule cbi(E) operations (rule 17)."""
        creator = self.monitor.current_id()
        timer_id = self.timers.set_interval(callback, delay, creator, self._fire_timer)
        self.monitor.timer_slot_write(timer_id)
        return timer_id

    def clear_timer(self, timer_id: int) -> None:
        """clearTimeout/clearInterval: a write to the timer slot that can
        race with the handler's firing (the Section 7 extension)."""
        self.monitor.timer_slot_write(timer_id, clearing=True)
        self.timers.clear(timer_id)

    def _fire_timer(self, entry: TimerEntry) -> None:
        monitor = self.monitor
        if entry.repeating:
            op = monitor.new_operation(
                CBI, label=f"cb{entry.fire_count}(interval#{entry.timer_id})"
            )
            if entry.fire_count == 0:
                monitor.graph.add_edge(entry.creator_op, op.op_id, R.RULE_17)
            elif entry.last_fire_op is not None:
                monitor.graph.add_edge(entry.last_fire_op, op.op_id, R.RULE_17)
        else:
            op = monitor.new_operation(CB, label=f"cb(timeout#{entry.timer_id})")
            monitor.graph.add_edge(entry.creator_op, op.op_id, R.RULE_16)
        entry.last_fire_op = op.op_id
        monitor.begin_operation(op)
        try:
            with self.obs.span("timer.fire", cat="timer", label=op.label):
                monitor.timer_slot_read(entry.timer_id)
                if isinstance(entry.callback, str):
                    self.run_source_in_current_op(
                        entry.callback, where="timer source"
                    )
                elif is_callable(entry.callback):
                    self._run_script(
                        "timer callback",
                        self.interpreter.call_function,
                        entry.callback,
                        self.interpreter.this_value,
                        [],
                    )
        finally:
            monitor.end_operation(op)

    # ------------------------------------------------------------------
    # XHR

    def start_xhr(self, xhr: XhrBinding) -> None:
        """Begin a simulated XHR; completion dispatches readystatechange."""
        def on_response(result: FetchResult) -> None:
            xhr.pending = None
            xhr.ready_state = 4
            xhr.status = result.status if not result.ok else 200
            xhr.response_text = result.content
            extra = (
                [(xhr.send_op, R.RULE_10)] if xhr.send_op is not None else None
            )
            self.dispatcher.dispatch("readystatechange", xhr, extra_sources=extra)

        # Keep the handle so abort()/re-open() can cancel the completion.
        xhr.pending = self.network.fetch(xhr.url, on_response)

    # ------------------------------------------------------------------
    # dynamic DOM mutation (called from bindings)

    def insert_element(
        self, element: Element, parent: Element, before: Optional[Element] = None
    ) -> None:
        """Instrumented dynamic insertion (appendChild/insertBefore)."""
        document = parent.home_document or self.document
        was_inserted = element.inserted
        document.insert(element, parent=parent, before=before)
        if not was_inserted:
            for node in [element] + element.element_descendants():
                self.element_connected(node)

    def remove_element(self, element: Element) -> None:
        """Instrumented dynamic removal (removeChild)."""
        document = element.home_document or self.document
        document.remove(element)

    def element_connected(self, element: Element, run_scripts: bool = True) -> None:
        """Dynamic insertion side effects (script-inserted scripts etc.)."""
        self._process_handler_attributes(element)
        document = element.home_document
        loader = self.loaders.get(document.doc_id) if document else None
        if loader is None:
            loader = self._root_loader
        create_op = self.monitor.create_op_of(element)
        if create_op is not None and not loader.dcl_fired:
            loader.dynamic_creates.append(create_op)
        if element.is_script and run_scripts:
            self._handle_inserted_script(loader, element, create_op)
        elif element.tag == "img" and element.get_attribute("src"):
            self._start_image(loader, element)
        elif element.tag == "iframe" and element.get_attribute("src"):
            self._start_iframe(loader, element, create_op or 0)

    def _handle_inserted_script(
        self, loader: DocumentLoader, element: Element, create_op: Optional[int]
    ) -> None:
        if element.is_inline_script:
            # Script-inserted inline scripts execute synchronously within
            # the inserting operation (Section 3.3, footnote 9).
            self.run_source_in_current_op(element.text, where="inserted inline script")
            return
        src = element.get_attribute("src") or ""
        blocks_load = not loader.window.load_fired
        if blocks_load:
            loader.note_pending()

        def on_script(result: FetchResult) -> None:
            if result.ok:
                exe_op = self.execute_script(
                    element,
                    create_op=create_op or 0,
                    source=result.content,
                    static=False,
                    delayed=True,
                )
                self._dispatch_element_load(loader, element, exe_op=exe_op)
            else:
                self._dispatch_element_error(loader, element)
            if blocks_load:
                loader.resource_loaded()

        self.network.fetch(src, on_script)

    def element_src_changed(self, element: Element) -> None:
        """A script set el.src; (re)start the load if el is in a document."""
        if not element.inserted:
            return
        document = element.home_document
        loader = self.loaders.get(document.doc_id) if document else None
        if loader is None:
            return
        if element.tag == "img":
            self._start_image(loader, element)
        elif element.tag == "iframe":
            create_op = self.monitor.create_op_of(element) or 0
            self._start_iframe(loader, element, create_op)

    def set_inner_html(self, element: Element, html: str) -> None:
        """innerHTML assignment: replace children; scripts do not run."""
        document = element.home_document or self.document
        for child in list(element.element_children()):
            document.remove(child)
        for top in _build_fragment(document, html):
            document.insert(top, parent=element)
            for node in [top] + top.element_descendants():
                self.element_connected(node, run_scripts=False)

    def append_markup(self, document: Document, html: str) -> None:
        """document.write: append markup to the document body (simplified)."""
        document.ensure_root()
        for top in _build_fragment(document, html):
            document.insert(top, parent=document.body)
            for node in [top] + top.element_descendants():
                self.element_connected(node, run_scripts=False)

    # ------------------------------------------------------------------
    # user interaction

    def queue_user_event(
        self, event_type: str, element: Element, delay: float = 0.0
    ) -> None:
        """Enqueue a simulated user interaction as an event-loop task."""
        self.loop.post(
            lambda: self.dispatcher.dispatch(event_type, element, user=True),
            delay=delay,
            kind="user",
            label=f"user {event_type} on {element!r}",
        )

    def simulate_typing(self, element: Element, text: str = "user input") -> None:
        """Simulate the user typing into a form field (Section 5.2.2).

        The paper's shadow handler makes typing immediately update the DOM
        ``value``; here the dispatch-root operation performs that write
        (marked ``user_input``) before the page's own input handlers run.
        """

        def write_value() -> None:
            self.monitor.dom_prop_write(element, "value", user_input=True)
            element.value = text

        self.dispatcher.dispatch(
            "input", element, user=True, pre_action=write_value
        )

    def queue_typing(self, element: Element, text: str = "user input", delay: float = 0.0) -> None:
        """Queue simulated typing as a user task."""
        self.loop.post(
            lambda: self.simulate_typing(element, text),
            delay=delay,
            kind="user",
            label=f"user types into {element!r}",
        )

    # ------------------------------------------------------------------
    # driving

    def run(self, max_ms: Optional[float] = None) -> "Page":
        """Drive the event loop until the page settles (or ``max_ms``)."""
        with self.obs.span("page.run", cat="pipeline", url=self.url):
            if max_ms is None:
                self.loop.run()
            else:
                self.loop.run_for(max_ms)
        return self

    # ------------------------------------------------------------------
    # results

    @property
    def trace(self):
        """The execution trace of this page."""
        return self.monitor.trace

    @property
    def races(self):
        """The races in this run's recorded rows (:attr:`Monitor.races`):
        the detector runs on the first read and resumes on later ones."""
        return self.monitor.races

    def loaded(self) -> bool:
        """Has the window load event fired?"""
        return self.window.load_fired

    def close(self) -> None:
        """Free this run as soon as its owner lets go of it (idempotent).

        The run's owner calls this once it has read what it needs.  The
        monitor drops its trace, HB store and detector; every window and
        its document cut their node links and handlers; the JS global
        object drops its properties, whose functions reach it back through
        their scope and whose host functions hold the page; and the page
        drops the components that point back at it.  What is left holds
        no reference cycle, so reference counting frees it without the
        collector, unless a page script linked its own JS values into one.
        A run stopped before its event loop drained (``max_run_ms``) also
        drops its queued tasks, live timers and fetches in flight, which
        close over the page.  ``trace`` and ``races`` are gone afterwards.
        """
        self.monitor.close()
        if self.interpreter is None:
            return
        self.loop.clear()
        self.timers.clear_all()
        self.network.clear()
        for window in self.window.all_windows():
            window.unlink()
        self.interpreter.global_object.properties.clear()
        self.interpreter = self.xhr_constructor = None
        self.bindings = self.dispatcher = self.explorer = None
        self.loaders = {}
        self._root_loader = None


def _num(args, index: int) -> float:
    from ..js.interpreter import to_number

    if len(args) > index:
        return to_number(args[index])
    return 0.0


def _build_fragment(document: Document, html: str) -> List[Element]:
    """Build detached element trees from an HTML fragment."""
    tops: List[Element] = []
    stack: List[Element] = []
    for token in tokenize_html(html):
        if isinstance(token, StartTag):
            element = document.create_element(token.name, token.attributes)
            if stack:
                stack[-1].raw_append(element)
            else:
                tops.append(element)
            if not token.self_closing:
                stack.append(element)
        elif isinstance(token, EndTag):
            for index in range(len(stack) - 1, -1, -1):
                if stack[index].tag == token.name:
                    del stack[index:]
                    break
        elif isinstance(token, TextToken):
            if stack:
                stack[-1].text += token.data
    return tops
