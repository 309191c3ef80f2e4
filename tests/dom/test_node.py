"""Tests for the DOM node tree structure."""

from repro.dom.node import NO_CHILDREN, Node


class TestStructure:
    def test_append(self):
        parent = Node()
        child = Node()
        parent.raw_append(child)
        assert child.parent is parent
        assert parent.children == [child]

    def test_append_moves_from_old_parent(self):
        a, b, child = Node(), Node(), Node()
        a.raw_append(child)
        b.raw_append(child)
        assert child.parent is b
        assert a.children == []

    def test_insert_before(self):
        parent, first, second = Node(), Node(), Node()
        parent.raw_append(second)
        parent.raw_insert_before(first, second)
        assert parent.children == [first, second]

    def test_insert_before_none_appends(self):
        parent, child = Node(), Node()
        parent.raw_insert_before(child, None)
        assert parent.children == [child]

    def test_remove(self):
        parent, child = Node(), Node()
        parent.raw_append(child)
        parent.raw_remove(child)
        assert child.parent is None
        assert parent.children == []

    def test_node_ids_unique(self):
        assert Node().node_id != Node().node_id


class TestSharedEmptyChildren:
    """A leaf holds the one shared empty value until its first child."""

    def test_fresh_leaves_share_the_empty_value(self):
        a, b = Node(), Node()
        assert a.children is NO_CHILDREN and b.children is NO_CHILDREN
        assert list(a.children) == [] and a.descendants() == []

    def test_first_insert_allocates_an_own_list(self):
        a, b, child = Node(), Node(), Node()
        a.raw_insert_before(child, None)
        assert a.children == [child]
        assert b.children is NO_CHILDREN and NO_CHILDREN == ()

    def test_append_insert_remove_after_the_first_child(self):
        parent, first, second, third = Node(), Node(), Node(), Node()
        parent.raw_append(second)
        parent.raw_insert_before(first, second)
        parent.raw_append(third)
        assert parent.children == [first, second, third]
        parent.raw_remove(second)
        parent.raw_remove(first)
        parent.raw_remove(third)
        assert parent.children == []
        assert first.children is NO_CHILDREN


class TestTraversal:
    def make_tree(self):
        #      root
        #     /    \
        #    a      b
        #   / \      \
        #  c   d      e
        root, a, b, c, d, e = (Node() for _ in range(6))
        root.raw_append(a)
        root.raw_append(b)
        a.raw_append(c)
        a.raw_append(d)
        b.raw_append(e)
        return root, a, b, c, d, e

    def test_descendants_preorder(self):
        root, a, b, c, d, e = self.make_tree()
        assert root.descendants() == [a, c, d, b, e]

    def test_ancestors(self):
        root, a, _b, c, _d, _e = self.make_tree()
        assert c.ancestors() == [a, root]

    def test_root(self):
        root, _a, _b, c, _d, e = self.make_tree()
        assert c.root() is root
        assert e.root() is root
        assert root.root() is root

    def test_contains(self):
        root, a, b, c, _d, _e = self.make_tree()
        assert contains(root, c)
        assert contains(a, c)
        assert not contains(b, c)
        assert contains(root, root)

    def test_child_index(self):
        root, a, b, *_rest = self.make_tree()
        assert root.children.index(a) == 0
        assert root.children.index(b) == 1


def contains(node, other):
    """Is ``other`` ``node`` or a descendant of it?"""
    while other is not None:
        if other is node:
            return True
        other = other.parent
    return False


def test_node_has_no_instance_dict():
    assert not hasattr(Node(), "__dict__")
