"""PyYAML's safe loaders, made to build plain documents only and to read
YAML 1.2 floats; config reads every YAML file with them."""

from __future__ import annotations

import re

import yaml
from yaml.constructor import ConstructorError

_TAG = "tag:yaml.org,2002:"
_PLAIN_SCALAR_TAGS = frozenset(
    _TAG + t for t in ("str", "int", "float", "bool", "null"))


def _with_yaml12_floats(base: type) -> type:
    """A safe loader class on base that also reads YAML 1.2 floats whose
    exponent follows the digits without a dot (1e-4, -2E+3), which YAML 1.1
    leaves as strings, and builds plain documents only, as stock PyYAML
    builds them: maps, sequences, str/int/float/bool/null scalars (each by
    its tag's constructor) and aliases, which get the object built for
    their node, a recursive one too.

    Anything else is a ConstructorError at its node: a key repeated in one
    mapping, an unhashable key, a tagged scalar that its constructor fails
    on with a KeyError, IndexError or AttributeError (`!!bool maybe`), and
    any other node, such as a merge key (`<<`), a timestamp, `!!binary`,
    `!!set` or a `!!python/` tag. The build recurses once per nesting
    level, so a document deeper than the recursion limit raises
    RecursionError."""
    class Loader(base):
        def construct_document(self, node):
            return self._build(node, {})

        def _build(self, node, built: dict):
            tag = node.tag
            if tag in _PLAIN_SCALAR_TAGS and isinstance(node, yaml.ScalarNode):
                try:
                    return self.yaml_constructors[tag](self, node)
                except (KeyError, IndexError, AttributeError) as exc:
                    raise ConstructorError(
                        None, None, f"cannot build {node.value!r} as {tag}",
                        node.start_mark) from exc
            if node in built:
                return built[node]
            # each collection is known before it is filled, so that an
            # alias inside it to itself gets it
            if tag == _TAG + "seq" and isinstance(node, yaml.SequenceNode):
                data = built[node] = []
                for value_node in node.value:
                    data.append(self._build(value_node, built))
                return data
            if tag == _TAG + "map" and isinstance(node, yaml.MappingNode):
                data = built[node] = {}
                for key_node, value_node in node.value:
                    key = self._build(key_node, built)
                    try:
                        repeated = key in data
                    except TypeError:   # a list or dict key
                        repeated = None
                    if repeated is not False:
                        raise ConstructorError(
                            "while constructing a mapping", node.start_mark,
                            "found unhashable key" if repeated is None
                            else f"found duplicate key {key!r}",
                            key_node.start_mark)
                    data[key] = self._build(value_node, built)
                return data
            raise ConstructorError(
                None, None, f"unsupported {node.id} tagged {tag}; a config "
                f"holds only mappings, sequences and str, int, float, bool "
                f"and null scalars", node.start_mark)

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))
    return Loader


# libyaml's C parser when PyYAML was built with it, else the pure-Python one
_YamlLoader = _with_yaml12_floats(getattr(yaml, "CSafeLoader",
                                          yaml.SafeLoader))
_PyYamlLoader = _with_yaml12_floats(yaml.SafeLoader)
