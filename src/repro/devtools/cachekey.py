"""RPR02x -- cache-key coherence rules.

Results are cached under a content key derived from the canonical
rendering of a :class:`~repro.runner.spec.RunSpec` plus ``CACHE_FORMAT``.
Two classes of silent aliasing can corrupt that scheme:

* RPR021 -- a new dataclass field that the wire codec does not carry:
  the field changes execution but round-trips to its default, so two
  different experiments share one key.  The rule cross-checks the
  ``RunSpec``/``ExperimentMatrix`` field lists against ``wire.py``'s
  ``_SPEC_FIELDS``/``_MATRIX_FIELDS`` whitelists, the ``*_to_wire`` dict
  literals and the ``*_from_wire`` constructor calls, plus the
  ``CANONICAL_OMIT_DEFAULTS`` compatibility map.
* RPR022 -- a numeric-semantics module changed without a format bump:
  the pinned manifest stores a *semantic* hash (AST with comments and
  docstrings stripped) of the modules whose maths defines what a cached
  number means (``thermal/kernels.py``, ``platform/state.py``,
  ``power/leakage.py``, and ``sim/scenario.py`` for the idle-gap
  cooldown).  If a hash moved, ``CACHE_FORMAT`` must move in
  the same diff -- refresh with ``repro-dtpm lint --update-manifests``.
"""

from __future__ import annotations

import ast
import json
import os
from typing import Dict, List, Optional, Tuple

from repro.devtools.framework import (
    FileContext,
    LintConfig,
    LintRun,
    Rule,
    data_path,
    load_json,
    semantic_hash,
)

#: Wire-only keys that are not dataclass fields.
_WIRE_EXTRA = frozenset({"schema"})

#: Modules whose semantic hash participates in the RPR022 manifest.
DEFAULT_PINNED_MODULES = (
    "repro/thermal/kernels.py",
    "repro/platform/state.py",
    "repro/power/leakage.py",
    "repro/sim/scenario.py",
)


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None
        )
        if name == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> Dict[str, int]:
    """Annotated instance fields of a dataclass body, name -> line."""
    out: Dict[str, int] = {}
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        target = stmt.target
        if not isinstance(target, ast.Name) or target.id.isupper():
            continue
        annotation = ast.dump(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        out[target.id] = stmt.lineno
    return out


def _str_tuple(node: ast.AST) -> Optional[List[str]]:
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    out = []
    for element in node.elts:
        if not (
            isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        ):
            return None
        out.append(element.value)
    return out


class _CodecSide:
    """What one linted file contributes to a spec/matrix coherence check."""

    def __init__(self) -> None:
        self.fields: Optional[Dict[str, int]] = None
        self.class_line = 0
        self.omit_defaults: Dict[str, int] = {}
        self.ctx_class: Optional[FileContext] = None
        self.wire_fields: Optional[List[str]] = None
        self.wire_fields_line = 0
        self.to_wire_keys: Optional[List[str]] = None
        self.to_wire_line = 0
        self.from_wire_kwargs: Optional[List[str]] = None
        self.from_wire_line = 0
        self.ctx_wire: Optional[FileContext] = None


class WireCoherenceRule(Rule):
    """RPR021: every spec field must exist in all three codec surfaces."""

    id = "RPR021"
    name = "wire-codec-coherence"
    description = (
        "a RunSpec/ExperimentMatrix field missing from the wire codec "
        "round-trips to its default, silently aliasing cache keys"
    )

    #: (class name, fields-tuple name, to_wire fn, from_wire fn)
    _TARGETS = (
        ("RunSpec", "_SPEC_FIELDS", "spec_to_wire", "spec_from_wire"),
        (
            "ExperimentMatrix", "_MATRIX_FIELDS", "matrix_to_wire",
            "matrix_from_wire",
        ),
    )

    def __init__(self, config: Optional[LintConfig] = None) -> None:
        self.config = config
        self._sides: Dict[str, _CodecSide] = {
            name: _CodecSide() for name, _, _, _ in self._TARGETS
        }

    # -- collection ----------------------------------------------------
    def observe(self, ctx: FileContext) -> None:
        for stmt in ast.walk(ctx.tree):
            if isinstance(stmt, ast.ClassDef):
                self._observe_class(stmt, ctx)
            elif isinstance(stmt, ast.Assign):
                self._observe_assign(stmt, ctx)
            elif isinstance(stmt, ast.FunctionDef):
                self._observe_function(stmt, ctx)

    def _observe_class(self, node: ast.ClassDef, ctx: FileContext) -> None:
        side = self._sides.get(node.name)
        if side is None or not _is_dataclass_decorated(node):
            return
        side.fields = _dataclass_fields(node)
        side.class_line = node.lineno
        side.ctx_class = ctx
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "CANONICAL_OMIT_DEFAULTS"
                and isinstance(stmt.value, ast.Dict)
            ):
                for key in stmt.value.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        side.omit_defaults[key.value] = stmt.lineno

    def _observe_assign(self, node: ast.Assign, ctx: FileContext) -> None:
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        target = node.targets[0].id
        for name, fields_name, _, _ in self._TARGETS:
            if target == fields_name:
                values = _str_tuple(node.value)
                if values is not None:
                    side = self._sides[name]
                    side.wire_fields = values
                    side.wire_fields_line = node.lineno
                    side.ctx_wire = ctx

    def _observe_function(self, node: ast.FunctionDef, ctx: FileContext) -> None:
        for name, _, to_wire, from_wire in self._TARGETS:
            side = self._sides[name]
            if node.name == to_wire:
                for stmt in ast.walk(node):
                    if isinstance(stmt, ast.Return) and isinstance(
                        stmt.value, ast.Dict
                    ):
                        keys = [
                            k.value
                            for k in stmt.value.keys
                            if isinstance(k, ast.Constant)
                            and isinstance(k.value, str)
                        ]
                        side.to_wire_keys = keys
                        side.to_wire_line = node.lineno
                        side.ctx_wire = side.ctx_wire or ctx
            elif node.name == from_wire:
                for stmt in ast.walk(node):
                    if (
                        isinstance(stmt, ast.Call)
                        and isinstance(stmt.func, ast.Name)
                        and stmt.func.id == name
                    ):
                        side.from_wire_kwargs = [
                            kw.arg
                            for kw in stmt.keywords
                            if kw.arg is not None
                        ]
                        side.from_wire_line = node.lineno
                        side.ctx_wire = side.ctx_wire or ctx

    # -- reconciliation ------------------------------------------------
    def finalize(self, run: LintRun) -> None:
        for name, fields_name, to_wire, from_wire in self._TARGETS:
            side = self._sides[name]
            if side.fields is None or side.ctx_wire is None:
                continue  # one half of the contract was not in the lint set
            field_names = list(side.fields)
            surfaces = (
                (side.wire_fields, side.wire_fields_line, fields_name),
                (side.to_wire_keys, side.to_wire_line,
                 "%s()'s wire dict" % to_wire),
                (side.from_wire_kwargs, side.from_wire_line,
                 "%s()'s %s(...) call" % (from_wire, name)),
            )
            for values, line, label in surfaces:
                if values is None:
                    continue
                for field in field_names:
                    if field not in values:
                        side.ctx_wire.report(
                            line, self,
                            "%s field %r is missing from %s; the field "
                            "would round-trip to its default and alias "
                            "cache keys" % (name, field, label),
                        )
                for value in values:
                    if value not in field_names and value not in _WIRE_EXTRA:
                        side.ctx_wire.report(
                            line, self,
                            "%s names %r which is not a %s field (stale "
                            "codec entry)" % (label, value, name),
                        )
            if side.ctx_class is not None:
                for key, line in side.omit_defaults.items():
                    if key not in field_names:
                        side.ctx_class.report(
                            line, self,
                            "CANONICAL_OMIT_DEFAULTS names %r which is not "
                            "a %s field" % (key, name),
                        )


class CacheManifestRule(Rule):
    """RPR022: pinned numeric-semantics modules vs ``CACHE_FORMAT``."""

    id = "RPR022"
    name = "cache-format-manifest"
    description = (
        "a pinned numeric-semantics module changed without a CACHE_FORMAT "
        "bump, so stale cached numbers would be served as current"
    )

    def __init__(self, config: Optional[LintConfig] = None) -> None:
        self.config = config
        self._format_value: Optional[int] = None
        self._format_line = 0
        self._format_ctx: Optional[FileContext] = None
        self._hashes: List[Tuple[FileContext, str]] = []

    def _manifest_path(self) -> str:
        if self.config is not None and self.config.cache_manifest:
            return self.config.cache_manifest
        return data_path("cache_manifest.json")

    def observe(self, ctx: FileContext) -> None:
        if ctx.path_endswith("runner/spec.py"):
            for stmt in ctx.tree.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "CACHE_FORMAT"
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, int)
                ):
                    self._format_value = stmt.value.value
                    self._format_line = stmt.lineno
                    self._format_ctx = ctx
        self._hashes.append((ctx, ctx.source))

    def finalize(self, run: LintRun) -> None:
        try:
            manifest = load_json(self._manifest_path())
        except (OSError, ValueError) as exc:
            if self._format_ctx is not None:
                self._format_ctx.report(
                    self._format_line, self,
                    "cache manifest %s is unreadable (%s); regenerate with "
                    "repro-dtpm lint --update-manifests"
                    % (self._manifest_path(), exc),
                )
            return
        modules = manifest.get("modules", {})
        pinned_format = manifest.get("cache_format")
        if (
            self._format_value is not None
            and pinned_format != self._format_value
        ):
            assert self._format_ctx is not None
            self._format_ctx.report(
                self._format_line, self,
                "CACHE_FORMAT is %d but the cache manifest pins %r; "
                "refresh the manifest in the same diff "
                "(repro-dtpm lint --update-manifests)"
                % (self._format_value, pinned_format),
            )
        for ctx, source in self._hashes:
            for module, pinned in modules.items():
                if not ctx.path_endswith(module):
                    continue
                actual = semantic_hash(source)
                if actual != pinned:
                    ctx.report(
                        1, self,
                        "numeric semantics of %s changed (hash %s..., "
                        "manifest pins %s...); bump CACHE_FORMAT in "
                        "repro/runner/spec.py and refresh the manifest "
                        "(repro-dtpm lint --update-manifests)"
                        % (module, actual[:12], str(pinned)[:12]),
                    )


def update_cache_manifest(
    src_root: str, manifest_path: Optional[str] = None
) -> str:
    """Refresh the RPR022 manifest; refuses hash drift without a bump.

    Returns a human-readable summary line.  Raises ``ValueError`` when a
    pinned module's semantic hash changed but ``CACHE_FORMAT`` did not --
    the exact situation the rule exists to prevent.
    """
    manifest_path = manifest_path or data_path("cache_manifest.json")
    spec_path = os.path.join(src_root, "repro", "runner", "spec.py")
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec_tree = ast.parse(fh.read())
    current_format: Optional[int] = None
    for stmt in spec_tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "CACHE_FORMAT"
            and isinstance(stmt.value, ast.Constant)
        ):
            current_format = int(stmt.value.value)
    if current_format is None:
        raise ValueError("could not find CACHE_FORMAT in %s" % spec_path)

    old: dict = {}
    if os.path.exists(manifest_path):
        old = load_json(manifest_path)
    # every default module is pinned; a manifest may pin extra ones
    module_names = tuple(old.get("modules", {}))
    module_names += tuple(
        m for m in DEFAULT_PINNED_MODULES if m not in module_names
    )

    fresh: Dict[str, str] = {}
    for module in module_names:
        path = os.path.join(src_root, *module.split("/"))
        with open(path, "r", encoding="utf-8") as fh:
            fresh[module] = semantic_hash(fh.read())

    drifted = sorted(
        m for m, h in fresh.items()
        if old.get("modules", {}).get(m, h) != h
    )
    if drifted and old.get("cache_format") == current_format:
        raise ValueError(
            "refusing to refresh hashes of %s: their numeric semantics "
            "changed but CACHE_FORMAT is still %d -- bump it in "
            "repro/runner/spec.py first" % (", ".join(drifted), current_format)
        )

    payload = {"cache_format": current_format, "modules": fresh}
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return "cache manifest: format %d, %d module(s) pinned" % (
        current_format, len(fresh)
    )


RULES = (WireCoherenceRule, CacheManifestRule)
