"""Tests for the Document: structure mutation + instrumented queries."""

from repro.core.locations import CollectionLocation, HElemLocation, id_key
from repro.dom.document import Document, DomInstrumentation


class RecordingInstrumentation(DomInstrumentation):
    def __init__(self):
        self.inserted = []
        self.removed = []
        self.reads = []
        self.collections = []

    def element_inserted(self, element, parent):
        self.inserted.append((element, parent))

    def element_removed(self, element, parent):
        self.removed.append((element, parent))

    def element_read(self, document, key, found, via):
        self.reads.append((key, found, via))

    def collection_read(self, document, kind, key):
        self.collections.append((kind, key))


def make_document():
    document = Document("test.html")
    instr = RecordingInstrumentation()
    document.instrumentation = instr
    return document, instr


class TestInsertion:
    def test_insert_into_body_by_default(self):
        document, instr = make_document()
        element = document.create_element("div", {"id": "a"})
        document.insert(element)
        assert element.parent is document.body
        assert element.inserted
        assert instr.inserted[0][0] is element

    def test_insert_subtree_reports_descendants(self):
        document, instr = make_document()
        parent = document.create_element("div", {"id": "p"})
        child = document.create_element("span")
        parent.raw_append(child)
        document.insert(parent)
        inserted = [entry[0] for entry in instr.inserted]
        assert parent in inserted and child in inserted
        assert child.inserted

    def test_insert_before_reference(self):
        document, _instr = make_document()
        first = document.create_element("div", {"id": "x"})
        second = document.create_element("div", {"id": "y"})
        document.insert(second)
        document.insert(first, before=second)
        assert document.body.children == [first, second]

    def test_id_index_updated(self):
        document, _instr = make_document()
        element = document.create_element("div", {"id": "k"})
        document.insert(element)
        assert document.get_element_by_id("k") is element

    def test_first_id_wins_on_duplicates(self):
        document, _instr = make_document()
        first = document.create_element("div", {"id": "dup"})
        second = document.create_element("div", {"id": "dup"})
        document.insert(first)
        document.insert(second)
        assert document.get_element_by_id("dup") is first


class TestRemoval:
    def test_remove_unindexes(self):
        document, instr = make_document()
        element = document.create_element("div", {"id": "gone"})
        document.insert(element)
        document.remove(element)
        assert document.get_element_by_id("gone") is None
        assert not element.inserted
        assert instr.removed[0][0] is element

    def test_remove_subtree(self):
        document, instr = make_document()
        parent = document.create_element("div")
        child = document.create_element("div", {"id": "inner"})
        parent.raw_append(child)
        document.insert(parent)
        document.remove(parent)
        assert document.get_element_by_id("inner") is None
        assert len(instr.removed) == 2

    def test_remove_detached_is_noop(self):
        document, instr = make_document()
        element = document.create_element("div")
        document.remove(element)
        assert instr.removed == []


class TestQueries:
    def test_get_element_by_id_miss_reports_read(self):
        """The failed lookup read is the racing access of Fig. 3."""
        document, instr = make_document()
        assert document.get_element_by_id("dw") is None
        key, found, via = instr.reads[-1]
        assert key == id_key(document.doc_id, "dw")
        assert not found
        assert via == "getElementById"

    def test_get_element_by_id_hit_reports_read(self):
        document, instr = make_document()
        document.insert(document.create_element("div", {"id": "dw"}))
        document.get_element_by_id("dw")
        key, found, _via = instr.reads[-1]
        assert found

    def test_get_elements_by_tag_name(self):
        document, instr = make_document()
        document.insert(document.create_element("div", {"id": "a"}))
        document.insert(document.create_element("p"))
        divs = document.get_elements_by_tag_name("div")
        assert [el.element_id for el in divs] == ["a"]
        assert ("tag", "div") in instr.collections

    def test_get_elements_by_tag_name_star(self):
        document, _instr = make_document()
        document.insert(document.create_element("div"))
        document.insert(document.create_element("p"))
        assert len(document.get_elements_by_tag_name("*")) >= 2

    def test_get_elements_by_name(self):
        document, instr = make_document()
        document.insert(document.create_element("input", {"name": "q"}))
        found = document.get_elements_by_name("q")
        assert len(found) == 1
        assert ("name", "q") in instr.collections

    def test_collections(self):
        document, instr = make_document()
        document.insert(document.create_element("form"))
        document.insert(document.create_element("img"))
        document.insert(document.create_element("a", {"href": "/x"}))
        document.insert(document.create_element("a", {"name": "anchor"}))
        document.insert(document.create_element("script"))
        assert len(document.collection("forms")) == 1
        assert len(document.collection("images")) == 1
        assert len(document.collection("links")) == 2
        assert len(document.collection("anchors")) == 1
        assert len(document.collection("scripts")) == 1

    def test_categories_of(self):
        document, _instr = make_document()
        img = document.create_element("img", {"name": "hero"})
        buckets = Document.categories_of(img)
        assert "tag:img" in buckets
        assert "images" in buckets
        assert "name:hero" in buckets


class TestScaffold:
    def test_ensure_root_idempotent(self):
        document = Document()
        first = document.ensure_root()
        second = document.ensure_root()
        assert first is second
        assert document.body.tag == "body"

    def test_all_elements(self):
        document, _instr = make_document()
        document.insert(document.create_element("div"))
        tags = [element.tag for element in document.all_elements()]
        assert tags == ["html", "body", "div"]
