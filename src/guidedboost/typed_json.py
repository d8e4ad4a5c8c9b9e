"""The typed reader of every JSON file the program reads (the experiment config
and the pipeline manifest): each value is checked against a kind (``KINDS``),
and each error names the file and the key path."""
from __future__ import annotations

import math

# what a value of each kind must be, as (test, description); JSON gives exact
# Python types, and a bool is neither a number nor a count here. json.load
# also reads NaN and Infinity, which no stored number may be.
KINDS = {
    "number": (lambda v: type(v) in (int, float) and math.isfinite(v), "a finite number"),
    "count": (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    "positive": (lambda v: type(v) is int and v > 0, "a positive integer"),
    "flag": (lambda v: type(v) is bool, "true or false"),
    "text": (lambda v: type(v) is str, "a string"),
    "text or null": (lambda v: v is None or type(v) is str, "a string or null"),
    "texts": (lambda v: type(v) is list and all(type(e) is str for e in v), "a list of strings"),
    "numbers": (
        lambda v: type(v) is list and all(type(e) in (int, float) and math.isfinite(e) for e in v),
        "a list of finite numbers",
    ),
    "counts": (
        lambda v: type(v) is list and all(type(e) is int and e >= 0 for e in v),
        "a list of non-negative integers",
    ),
    "seed": (lambda v: type(v) is list and all(type(e) is int for e in v), "a list of integers"),
    "object": (lambda v: type(v) is dict, "an object"),
    "four": (
        lambda v: type(v) is list and len(v) == 4 and all(type(e) is dict for e in v),
        "a list of 4 objects",
    ),
}


class Node:
    """A JSON object of the file named what, with its key path, such as
    ``model_5.encoder`` in the ``pipeline manifest``."""

    def __init__(self, obj: dict, what: str, path: str = ""):
        self.obj = obj
        self.what = what
        self.path = path

    @classmethod
    def root(cls, value, what: str) -> Node:
        """The whole file what, which must be a JSON object."""
        if type(value) is not dict:
            raise ValueError(f"{what} is not a JSON object (found {type(value).__name__})")
        return cls(value, what)

    def _key(self, name: str) -> str:
        return f"{self.path}.{name}" if self.path else name

    def only(self, known) -> Node:
        """self, checked to hold no key outside known."""
        for name in self.obj:
            if name not in known:
                raise ValueError(
                    f"unknown {self.what} key {self._key(name)}: "
                    f"{name!r} is not one of {', '.join(known)}"
                )
        return self

    def get(self, name: str, kind: str, default=None):
        """The value under name, checked to be of kind; errors name the key.

        An "object" comes back as a Node, and each entry of a "four" list too.
        A missing name reads default, which must then be of kind; with no
        default it is an error.
        """
        key = self._key(name)
        if name not in self.obj and default is None:
            raise ValueError(f"{self.what} is missing key {key!r}")
        value = self.obj.get(name, default)
        ok, expected = KINDS[kind]
        if not ok(value):
            raise ValueError(f"{self.what} key {key} must be {expected}, found {value!r}")
        if kind == "object":
            return Node(value, self.what, key)
        if kind == "four":
            return [Node(entry, self.what, f"{key}[{i}]") for i, entry in enumerate(value)]
        return value

    def read(self, kinds: dict[str, str]) -> dict:
        """{name: value} for each name of kinds that self holds, read as its kind."""
        return {name: self.get(name, kind) for name, kind in kinds.items() if name in self.obj}
