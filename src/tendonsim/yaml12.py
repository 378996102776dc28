"""The one YAML reader of config: the events of PyYAML's safe parser
(libyaml's where PyYAML was built with it) go to a builder that reads plain
documents only, and YAML 1.2 floats."""

from __future__ import annotations

import re

import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError
from yaml.events import (AliasEvent, MappingStartEvent, ScalarEvent,
                         SequenceStartEvent, StreamEndEvent)
from yaml.nodes import ScalarNode

# The deepest a document's collections may nest, its top-level mapping
# counted; the shipped files nest at most 4 deep.
MAX_DEPTH = 64

_TAG = "tag:yaml.org,2002:"
_STR, _INT, _FLOAT, _SEQ, _MAP = (_TAG + t for t in
                                  ("str", "int", "float", "seq", "map"))
_PLAIN_SCALAR_TAGS = frozenset((_STR, _INT, _FLOAT, _TAG + "bool",
                                _TAG + "null"))
# the ints and floats built here, where int() and float() read them as
# SafeConstructor does; every other scalar is built by SafeConstructor
_DECIMAL_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)").fullmatch
_DECIMAL_FLOAT = re.compile(
    r"[-+]?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
    r"|[0-9]+[eE][-+]?[0-9]+)").fullmatch
_NO_KEY = object()   # the key slot of a mapping that awaits its next key


def _with_yaml12_floats(base: type) -> type:
    """A safe loader class on base whose resolver also tags as floats the
    YAML 1.2 floats whose exponent follows the digits without a dot (1e-4,
    -2E+3), which YAML 1.1 leaves as strings. Its events feed _build."""
    class Loader(base):
        pass
    Loader.add_implicit_resolver(
        _FLOAT,
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))
    return Loader


# libyaml's C parser when PyYAML was built with it, else the pure-Python one
_Loader = _with_yaml12_floats(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load(stream) -> object:
    """The one document of stream, or None for an empty stream."""
    loader = _Loader(stream)
    try:
        return _build(loader)
    finally:
        loader.dispose()


def _build(loader) -> object:
    """The one document of loader's events, built as stock PyYAML builds a
    plain document: maps, sequences, str/int/float/bool/null scalars,
    tagged as loader's resolver tags them, and aliases, which get the
    object built for their anchor, a recursive one too.

    The events are read in a loop, so there is no recursion, and a
    document nested deeper than MAX_DEPTH is a YAMLError. Anything else
    that a plain document does not hold is a ConstructorError at its node:
    a key repeated in one mapping, an unhashable key, a tagged scalar that
    its constructor fails on with a KeyError, IndexError or AttributeError
    (`!!bool maybe`), and any other node, such as a merge key (`<<`), a
    timestamp, `!!binary`, `!!set` or a `!!python/` tag. The composer's
    errors (an undefined alias, a repeated anchor, a second document) and
    the parser's are raised before any of these, as stock PyYAML composes
    a document before it builds it."""
    resolvers = loader.yaml_implicit_resolvers
    assert None not in resolvers and not loader.yaml_path_resolvers
    get_event = loader.get_event
    get_event()                                   # the stream start
    if get_event().__class__ is StreamEndEvent:   # else the document start
        return None
    event = get_event()
    root_mark = event.start_mark
    anchors: dict = {}  # each anchor's object and its node's start mark
    # the open collections, innermost last: [object, start mark, key slot]
    stack: list = []
    try:
        while True:
            cls = event.__class__
            if cls is ScalarEvent:
                mark, anchor = event.start_mark, event.anchor
                if anchor is not None:
                    _add_anchor(anchors, event, None)
                value, tag = event.value, event.tag
                if tag is None or tag == "!":
                    tag = _STR
                    if event.implicit[0]:
                        for t, regexp in resolvers.get(value[:1], ()):
                            if regexp.match(value):
                                tag = t
                                break
                if tag == _INT and _DECIMAL_INT(value):
                    value = int(value)
                elif tag == _FLOAT and _DECIMAL_FLOAT(value):
                    value = float(value)
                elif tag != _STR:
                    value = _stock_scalar(loader, tag, event)
                if anchor is not None:
                    anchors[anchor] = value, mark
            elif cls is MappingStartEvent or cls is SequenceStartEvent:
                if len(stack) == MAX_DEPTH:
                    raise yaml.YAMLError("nested too deeply")
                mark, is_map = event.start_mark, cls is MappingStartEvent
                data = {} if is_map else []
                # known before it is filled, so that an alias inside it to
                # itself gets it
                if event.anchor is not None:
                    _add_anchor(anchors, event, data)
                stack.append([data, mark, _NO_KEY])
                tag = event.tag
                if tag is not None and tag != "!" and tag != (
                        _MAP if is_map else _SEQ):
                    raise ConstructorError(None, None, _unsupported(
                        "mapping" if is_map else "sequence", tag), mark)
                event = get_event()
                continue
            elif cls is AliasEvent:
                if event.anchor not in anchors:
                    raise _undefined_alias(event)
                value, mark = anchors[event.anchor]
            else:                                 # a collection's end
                value, mark, _ = stack.pop()
            if not stack:
                break
            top = stack[-1]
            data = top[0]
            if data.__class__ is list:
                data.append(value)
            elif top[2] is _NO_KEY:
                try:
                    repeated = value in data
                except TypeError:                 # a list or dict key
                    repeated = None
                if repeated is not False:
                    raise ConstructorError(
                        "while constructing a mapping", top[1],
                        "found unhashable key" if repeated is None
                        else f"found duplicate key {value!r}", mark)
                top[2] = value
            else:
                data[top[2]] = value
                top[2] = _NO_KEY
            event = get_event()
    except (ConstructorError, ValueError):
        _compose_rest(get_event, anchors, len(stack))
        _end_document(get_event, root_mark)
        raise
    _end_document(get_event, root_mark)
    return value


def _stock_scalar(loader, tag: str, event):
    """The scalar of event, tagged tag, as SafeConstructor builds it."""
    if tag not in _PLAIN_SCALAR_TAGS:
        raise ConstructorError(None, None, _unsupported("scalar", tag),
                               event.start_mark)
    node = ScalarNode(tag, event.value, event.start_mark, event.end_mark,
                      style=event.style)
    try:
        return loader.yaml_constructors[tag](loader, node)
    except (KeyError, IndexError, AttributeError) as exc:
        raise ConstructorError(
            None, None, f"cannot build {event.value!r} as {tag}",
            event.start_mark) from exc


def _unsupported(node_id: str, tag: str) -> str:
    return (f"unsupported {node_id} tagged {tag}; a config holds only "
            f"mappings, sequences and str, int, float, bool and null scalars")


def _add_anchor(anchors: dict, event, data) -> None:
    if event.anchor in anchors:
        raise ComposerError(
            f"found duplicate anchor {event.anchor!r}; first occurrence",
            anchors[event.anchor][1], "second occurrence", event.start_mark)
    anchors[event.anchor] = data, event.start_mark


def _undefined_alias(event) -> ComposerError:
    return ComposerError(None, None, f"found undefined alias "
                         f"{event.anchor!r}", event.start_mark)


def _compose_rest(get_event, anchors: dict, depth: int) -> None:
    """Read the events of the depth collections still open after a build
    error, with the composer's checks, so that a parse or composer error
    further on is raised in its place."""
    while depth:
        event = get_event()
        cls = event.__class__
        if cls is AliasEvent:
            if event.anchor not in anchors:
                raise _undefined_alias(event)
            continue
        if cls is MappingStartEvent or cls is SequenceStartEvent:
            if depth == MAX_DEPTH:
                raise yaml.YAMLError("nested too deeply")
            depth += 1
        elif cls is not ScalarEvent:
            depth -= 1
            continue
        if event.anchor is not None:
            _add_anchor(anchors, event, None)


def _end_document(get_event, root_mark) -> None:
    get_event()                                   # the document end
    event = get_event()
    if event.__class__ is not StreamEndEvent:
        raise ComposerError("expected a single document in the stream",
                            root_mark, "but found another document",
                            event.start_mark)
