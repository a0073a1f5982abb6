"""One schema for the study tables: field metadata drives parsing,
rendering and checks.

Each field of a study table's frozen dataclass declares a converter
(:func:`fld`) that parses a value, checks its type, bounds or choices,
and renders it back.  Planned once per class, the converters give the
construction checks of a :class:`Record`, :func:`from_dict` and
:func:`to_dict`; a bad value raises :class:`FieldError` naming its full
path (``loads[3].c``).  Plain fields (an out-of-tree load's ``float``
fields) get a converter inferred from their default.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import operator
import os
import reprlib

from ..errors import ExperimentError

__all__ = ["FieldError", "Record", "Meta", "fld", "declare", "when",
           "plan", "from_dict", "to_dict", "Conv", "Num", "Int",
           "Str", "Is", "PathStr", "Table", "List", "Map"]

_short = reprlib.Repr()
_short.maxstring = _short.maxother = 40
MISSING = dataclasses.MISSING


def _path_text(root: str, path: tuple) -> str:
    """``root`` + ``("loads", 3, "c")`` -> ``loads[3].c``."""
    out = root
    for seg in path:
        out = f"{out}[{seg}]" if isinstance(seg, int) \
            else f"{out}.{seg}" if out else seg
    return out


class FieldError(ExperimentError):
    """A bad study field, named by its ``path`` (field names and list
    indices) below the table ``root``.  ``{name}`` in ``problem`` renders
    as the path of the sibling field ``name`` in ``refs``; a tuple ref
    ``(a, b)`` is the field at ``a``, ``b`` in place of the path's last
    two segments (``{a, b}`` in ``problem``)."""

    def __init__(self, problem: str, path: tuple = (), refs=(),
                 root: str = ""):
        super().__init__(problem)
        self.problem, self.path, self.root = problem, tuple(path), root
        self.refs = tuple(refs)

    def __reduce__(self):
        return (FieldError, (self.problem, self.path, self.refs, self.root))

    def under(self, *segs, root: str = "") -> "FieldError":
        """The error seen from the table holding ``segs``; an error at
        the field itself names the field as its subject."""
        problem = self.problem
        if not self.path and isinstance(segs[-1], str):
            problem = f"{segs[-1]!r} {problem}"
        return FieldError(problem, (*segs, *self.path), self.refs, root)

    def __str__(self) -> str:
        problem = self.problem
        for name in self.refs:
            rel = name if isinstance(name, tuple) else (name,)
            problem = problem.replace(
                "{%s}" % ", ".join(map(str, rel)),
                _path_text(self.root, self.path[:-len(rel)] + rel))
        where = _path_text(self.root, self.path)
        return f"{where}: {problem}" if where else problem


def bad(name: str, problem: str, refs: tuple = ()) -> FieldError:
    """A cross-field error at field ``name`` of the record being built."""
    return FieldError(f"{name!r} {problem}", (name,), refs)


# ---------------------------------------------------------------------------
# converters
# ---------------------------------------------------------------------------

class Conv:
    """A field converter: ``parse`` a value to its checked, normalized
    form (:class:`FieldError` if bad), ``render`` it back to JSON-able
    form; ``None`` passes both only when ``optional``."""

    what = "a value"

    def __init__(self, optional: bool = False):
        self.optional = optional

    def parse(self, value):
        """The checked, normalized value."""
        if value is None and not self.optional:
            raise FieldError(f"must be {self.what}, not null")
        return None if value is None else self._parse(value)

    def _parse(self, value):
        return value

    def render(self, value):
        """The JSON-able form of a parsed value."""
        return None if value is None else self._render(value)

    def _render(self, value):
        return value

    def _type_error(self, value):
        return FieldError(f"must be {self.what}, not {_short.repr(value)}")


class Num(Conv):
    """A finite real number, as a float, inside optional bounds."""

    what = "a number"

    def __init__(self, gt=None, ge=None, lt=None, le=None,
                 optional: bool = False):
        super().__init__(optional)
        self.bounds = tuple((test, sym, x) for x, test, sym in (
            (gt, operator.gt, ">"), (ge, operator.ge, ">="),
            (lt, operator.lt, "<"), (le, operator.le, "<=")) if x is not None)

    def _parse(self, value):
        if type(value) is not float:
            if isinstance(value, bool) \
                    or not isinstance(value, numbers.Real):
                raise self._type_error(value)
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
        if not math.isfinite(value):
            raise FieldError(f"must be finite, got {value!r}")
        self.bound(value)
        return value

    def bound(self, value) -> None:
        """Raise :class:`FieldError` unless ``value`` is in bounds."""
        for test, sym, x in self.bounds:
            if not test(value, x):
                raise FieldError(f"must be {sym} {x:g}, got {value!r}")

    _render = float


class Int(Num):
    """An integer (an integral float too, never a bool), in bounds."""

    what = "an integer"

    def _parse(self, value):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value,
                                                     numbers.Integral):
            raise self._type_error(value)
        self.bound(int(value))
        return int(value)

    _render = int


class Is(Conv):
    """A value of Python type ``types``, optionally one of ``choices``
    (a live collection: a registry that grows is read at each parse)."""

    def __init__(self, types, what: str, choices=None,
                 optional: bool = False):
        super().__init__(optional)
        self.types, self.what, self.choices = types, what, choices

    def _parse(self, value):
        if not isinstance(value, self.types):
            raise self._type_error(value)
        if self.choices is not None and value not in self.choices:
            raise FieldError(f"must be one of {sorted(self.choices)}, "
                             f"not {_short.repr(value)}")
        return value


def Str(choices=None, optional: bool = False) -> Is:  # noqa: N802
    """A string (one of ``choices``, if given)."""
    return Is(str, "a string", choices, optional)


class PathStr(Conv):
    """A non-empty path; an ``os.PathLike`` normalizes to its string."""

    what = "a directory path"

    def _parse(self, value):
        value = os.fspath(value) if isinstance(value, os.PathLike) else value
        if not isinstance(value, str) or not value:
            raise self._type_error(value)
        return value


class Table(Conv):
    """A nested record: an instance of ``cls``, or its table."""

    what = "a table"

    def __init__(self, cls, optional: bool = False):
        super().__init__(optional)
        self.cls = cls

    def _parse(self, value):
        return value if isinstance(value, self.cls) \
            else from_dict(self.cls, value)

    def _render(self, value):
        return to_dict(value)


class List(Conv):
    """A list of ``item`` values, stored as a tuple: a ``wrap``-type
    value is a one-element list (a bare string is one pattern, never its
    characters), a ``noun`` requires one item, ``unique`` drops repeats."""

    what = "a list"

    def __init__(self, item: Conv, wrap=(), noun: str | None = None,
                 unique: bool = False, optional: bool = False):
        super().__init__(optional)
        self.item, self.wrap = item, tuple(wrap)
        self.noun, self.unique = noun, unique

    def _parse(self, value):
        if isinstance(value, self.wrap):
            value = (value,)
        elif not isinstance(value, (list, tuple)):
            raise self._type_error(value)
        out = []
        for i, x in enumerate(value):
            try:
                x = self.item.parse(x)
            except FieldError as exc:
                raise exc.under(i) from None
            if not (self.unique and x in out):
                out.append(x)
        if self.noun and not out:
            raise FieldError(f"must name at least one {self.noun}")
        return tuple(out)

    def _render(self, value):
        return [self.item.render(x) for x in value]


class Map(Conv):
    """A table of ``name -> item``, stored as a name-sorted tuple of
    pairs (so records hash and compare by value)."""

    what = "a table of names"

    def __init__(self, item: Conv):
        super().__init__()
        self.item = item

    def _parse(self, value):
        pairs = tuple(value.items()) if isinstance(value, dict) else value
        if not isinstance(pairs, (list, tuple)) or not all(
                isinstance(p, (list, tuple)) and len(p) == 2
                and isinstance(p[0], str) for p in pairs):
            raise self._type_error(value)
        out = {}
        for name, x in pairs:
            try:
                out[name] = self.item.parse(x)
            except FieldError as exc:
                raise exc.under(name) from None
        return tuple(sorted(out.items()))

    def _render(self, value):
        return {name: self.item.render(x) for name, x in value}


# ---------------------------------------------------------------------------
# field metadata and the per-class plan
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Meta:
    """One field's schema.  ``key`` is its document spelling (the name
    works too); ``always`` renders it at its default, ``omit(record,
    value)`` replaces the default-equality rule; ``required`` refuses a
    table without it.  :func:`plan` fills in ``name`` and ``default``."""

    conv: Conv
    key: str | None = None
    always: bool = False
    omit: object = None
    required: bool = False
    name: str = ""
    default: object = None


def fld(conv: Conv, default=MISSING, *, factory=MISSING, **meta):
    """A dataclass field carrying its schema :class:`Meta`."""
    return dataclasses.field(default=default, default_factory=factory,
                             metadata={"schema": Meta(conv, **meta)})


def when(selector: str, *values):
    """Omit rule: render a field only while field ``selector`` is one of
    ``values`` (a family's own parameters)."""
    return lambda obj, value: getattr(obj, selector) not in values


_DECLARED: dict = {}


def declare(cls, **convs) -> None:
    """Give fields of ``cls`` and its subclasses without their own
    metadata a converter (``name=Conv``) or a whole :class:`Meta`."""
    _DECLARED[cls] = convs


def _meta(cls, f, default) -> Meta:
    """A field's metadata: its own, declared, or inferred."""
    if "schema" in f.metadata:
        return f.metadata["schema"]
    for klass in cls.__mro__:
        if f.name in _DECLARED.get(klass, {}):
            meta = _DECLARED[klass][f.name]
            return meta if isinstance(meta, Meta) else Meta(meta)
    # bool before int: a bool is an int
    return Meta(Is(bool, "true or false") if isinstance(default, bool)
                else Int() if isinstance(default, int)
                else Num() if isinstance(default, float)
                else Str() if isinstance(default, str)
                else Conv(optional=True))


@functools.cache
def plan(cls) -> dict:
    """``{field name: Meta}`` of a dataclass, built once per class."""
    out = {}
    for f in dataclasses.fields(cls):
        default = f.default if f.default_factory is MISSING \
            else f.default_factory()
        meta = _meta(cls, f, default)
        out[f.name] = dataclasses.replace(
            meta, name=f.name, key=meta.key or f.name, default=default)
    return out


@functools.cache
def _by_key(cls) -> dict:
    """``{document key or field name: Meta}`` of a class."""
    fields = plan(cls).values()
    return {**{f.name: f for f in fields}, **{f.key: f for f in fields}}


def from_dict(cls, d):
    """Build ``cls`` from its document table ``d`` (or from a value the
    class's ``_shorthand`` turns into one)."""
    root = getattr(cls, "_table", "")
    if not isinstance(d, dict) and hasattr(cls, "_shorthand"):
        d = cls._shorthand(d)
    if not isinstance(d, dict):
        raise FieldError(f"must be a table of fields, not "
                         f"{type(d).__name__}", root=root)
    fields, by_key = plan(cls), _by_key(cls)
    kw, parsed_later = {}, issubclass(cls, Record)  # at construction
    try:
        for key, value in d.items():
            f = by_key.get(key)
            if f is None:
                raise FieldError(
                    f"unknown {cls.__name__} fields "
                    f"{sorted(str(k) for k in d if k not in by_key)}; known: "
                    f"{sorted(f.key for f in fields.values())}", (key,))
            if f.name in kw:
                raise bad(key, f"is given twice ({f.key!r} and "
                               f"{f.name!r}): give it once, not both")
            try:
                kw[f.name] = value if parsed_later else f.conv.parse(value)
            except FieldError as exc:
                raise exc.under(key) from None
        for f in fields.values():
            if f.name not in kw and (f.required or f.default is MISSING):
                raise FieldError("is required").under(f.key)
        return cls(**kw)
    except FieldError as exc:
        raise FieldError(exc.problem, exc.path, exc.refs, root) from None
    except ExperimentError as exc:  # a foreign class's own check
        raise FieldError(str(exc), root=root) from None


def to_dict(obj, keep=()) -> dict:
    """Lossless JSON/TOML-able rendering of ``obj``; fields named in
    ``keep`` render even at their default."""
    out = {}
    for f in plan(type(obj)).values():
        value = getattr(obj, f.name)
        if f.name in keep or f.always or not (
                f.omit(obj, value) if f.omit else value == f.default):
            out[f.key] = f.conv.render(value)
    return out


class Record:
    """Mixin of the schema dataclasses: construction parses every field
    in place; ``to_dict`` (also the ``canonical`` identity, unless a
    class needs another) and ``from_dict`` round-trip the document form.
    ``_table`` roots a record's errors (``stochastic``)."""

    _table = ""

    def __post_init__(self):
        for f in plan(type(self)).values():
            value = getattr(self, f.name)
            try:
                new = f.conv.parse(value)
            except FieldError as exc:
                raise exc.under(f.key, root=self._table) from None
            if new is not value:
                object.__setattr__(self, f.name, new)

    def to_dict(self) -> dict:
        """Lossless JSON/TOML-able rendering (the study schema)."""
        return to_dict(self)

    canonical = to_dict

    @classmethod
    def from_dict(cls, d):
        """Rebuild from :meth:`to_dict` output (:func:`from_dict`)."""
        return from_dict(cls, d)
