"""PyYAML's safe loaders, made to read YAML 1.2 floats and to reject a key
repeated in one mapping; config reads every YAML file with them."""

from __future__ import annotations

import re

import yaml

_TAG = "tag:yaml.org,2002:"
_PLAIN_SCALAR_TAGS = frozenset(
    _TAG + t for t in ("str", "int", "float", "bool", "null"))


class _NotPlain(Exception):
    """A node the direct builder leaves to PyYAML's constructor."""


def _with_yaml12_floats(base: type) -> type:
    """A safe loader class on base that also reads YAML 1.2 floats whose
    exponent follows the digits without a dot (1e-4, -2E+3), which YAML 1.1
    leaves as strings, and rejects a key repeated in one mapping, a `<<`
    merge source too (keys a merge brings in may be overridden).

    A plain document, only maps, sequences and str/int/float/bool/null
    scalars under scalar keys, is built straight from its nodes by the
    tag's own scalar constructors; an alias gets the object built for its
    node. Any other document, and any whose build raises (a recursive
    alias or deep nesting ends in RecursionError), goes to PyYAML's
    constructor on the same nodes, which loads it or reports its error. A
    tagged scalar that the tag's constructor fails on with a KeyError,
    IndexError or AttributeError (`!!bool maybe`, `!!int ""`, `!!timestamp
    foo`) is a ConstructorError at the scalar."""
    class Loader(base):
        def construct_document(self, node):
            try:
                return self._build(node, {})
            except Exception:
                self._checked = set()
                return super().construct_document(node)

        def _build(self, node, built: dict):
            tag = node.tag
            if tag in _PLAIN_SCALAR_TAGS and isinstance(node, yaml.ScalarNode):
                return self.yaml_constructors[tag](self, node)
            if node in built:
                return built[node]
            if tag == _TAG + "seq" and isinstance(node, yaml.SequenceNode):
                data = [self._build(v, built) for v in node.value]
            elif tag == _TAG + "map" and isinstance(node, yaml.MappingNode):
                data = {}
                for key_node, value_node in node.value:
                    key = self._build(key_node, built)
                    if key in data:     # TypeError if unhashable
                        raise _NotPlain
                    data[key] = self._build(value_node, built)
            else:
                raise _NotPlain
            built[node] = data
            return data

        def construct_object(self, node, deep=False):
            try:
                return super().construct_object(node, deep=deep)
            except (KeyError, IndexError, AttributeError) as exc:
                if not isinstance(node, yaml.ScalarNode):
                    raise
                raise yaml.constructor.ConstructorError(
                    None, None, f"cannot build {node.value!r} as "
                    f"{node.tag}", node.start_mark) from exc

        def flatten_mapping(self, node):
            # every mapping, a merge source too, is flattened before it is
            # read, and flattening rewrites node.value: check the keys the
            # mapping names itself, once, as its first flattening found them
            own = None if node in self._checked else [
                k for k, _ in node.value if k.tag != _TAG + "merge"]
            super().flatten_mapping(node)   # this also tags `=` keys str
            if own is not None:
                self._checked.add(node)
                seen = set()
                for key_node in own:
                    key = self.construct_object(key_node)
                    try:
                        repeated = key in seen
                    except TypeError:   # construct_mapping reports it
                        continue
                    if repeated:
                        raise yaml.constructor.ConstructorError(
                            "while constructing a mapping", node.start_mark,
                            f"found duplicate key {key!r}",
                            key_node.start_mark)
                    seen.add(key)

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))
    return Loader


# libyaml's C parser when PyYAML was built with it, else the pure-Python one
_YamlLoader = _with_yaml12_floats(getattr(yaml, "CSafeLoader",
                                          yaml.SafeLoader))
_PyYamlLoader = _with_yaml12_floats(yaml.SafeLoader)
