"""Hash-consing for the immutable nodes of formulas and signed formulas.

Constructing a node equal to one that is alive returns that node, so equal
nodes are one object: == is identity and the hash is the identity hash, both
O(1) however deep the node.  A node type's __new__ keys TABLE by the type and
the identities of the operands (or by plain values such as a variable's
name), which the node holds alive, so a key names at most one live node:

    node = TABLE.get(key, absent)()
    if node is None:
        node = enter(key, <a new node>)

TABLE is global, since identity must hold across callers.  Its values are
weak references: a node no one holds leaves the table.  Every operation on
TABLE is one C-level dict call, so interning needs no lock while the
interpreter lock is held.
"""

import weakref
from _weakref import _remove_dead_weakref  # the primitive WeakValueDictionary uses

TABLE = {}


class _Ref(weakref.ref):
    # weakref.KeyedRef, but built in C: KeyedRef's __new__ and __init__ are
    # Python methods, which make it four times as slow to build.
    __slots__ = ("key",)


def _evict(ref):
    # Removes the entry only while it holds a dead reference: a live node
    # entered under the same key meanwhile stays.
    _remove_dead_weakref(TABLE, ref.key)


def absent():
    """Stands in for the weak reference of a missing entry."""
    return None


def lookup(key):
    """The live node interned under key, or None; builds nothing."""
    return TABLE.get(key, absent)()


def enter(key, node):
    """The live node interned under key if there is one, else node, which
    is entered now."""
    ref = _Ref(node, _evict)
    ref.key = key
    while True:
        old = TABLE.setdefault(key, ref)
        if old is ref:
            return node
        live = old()
        if live is not None:
            return live
        _remove_dead_weakref(TABLE, key)


class Interned:
    """An immutable interned node: its fields, named by __match_args__, are
    set once in __new__ through their slot descriptors.  Copies and pickle
    round trips return the interned node."""

    __slots__ = ("__weakref__",)
    __match_args__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"
