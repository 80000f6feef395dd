"""Hash-consing for the immutable nodes of formulas and signed formulas,
and Frozen, the immutable record those nodes and the proof records share.

Constructing a node equal to one that is alive returns that node, so equal
nodes are one object: == is identity and the hash is the identity hash, both
O(1) however deep the node.  A node type's __new__ keys TABLE by the type and
the operands themselves (or by plain values such as a variable's name).
Operands hash and compare by identity, so a key names at most one live node.
A key holds its operands, as its node does, until the node dies; keying by
their id()s instead would cost an int object for each:

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


class Frozen:
    """An immutable record: its fields, named in order by __match_args__,
    are set once at construction through their slot descriptors.  Copies
    return the record itself, and pickle rebuilds it from its fields."""

    __slots__ = ()
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
        # Written from an explicit stack, so records of any depth print.  An
        # item is a piece of text or a record or tuple still to be written.
        pieces, stack = [], [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                pieces.append(item)
                continue
            if type(item) is tuple:
                names, values = [""] * len(item), item
                tokens, tail = ["("], ",)" if len(item) == 1 else ")"
            else:
                names = [f"{name}=" for name in item.__match_args__]
                values = [getattr(item, name) for name in item.__match_args__]
                tokens, tail = [f"{type(item).__name__}("], ")"
            for i, (name, value) in enumerate(zip(names, values)):
                nested = type(value) is tuple or type(value).__repr__ is Frozen.__repr__
                tokens += (", " if i else "") + name, value if nested else repr(value)
            stack += reversed(tokens + [tail])
        return "".join(pieces)


class Interned(Frozen):
    """An immutable interned node, set up in __new__: == is identity and the
    hash is the identity hash.  A copy or a pickle round trip returns the
    interned node."""

    __slots__ = ("__weakref__",)
