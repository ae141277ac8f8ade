"""Manifest-driven command line front end.

Commands read a JSON manifest describing one metric (explicit component
matrix or a named family) and optionally a hatted metric, and write a
single machine-readable JSON document to stdout.  Reports serialize with
sorted keys so identical inputs produce byte-identical output.

    metriclift check   --manifest m.json [--samples N --tol X --seed N --lift KIND]
    metriclift lift    --manifest m.json [--lift KIND]
    metriclift tensors --manifest m.json --at "v1,v2,..."

Exit codes for ``check``: 0 harmonic-on-samples, 1 not-harmonic, 2 input
error, command-line syntax errors included.  With ``--lift KIND`` (or a
``lift`` field in the manifest), ``check`` evaluates the
lifted-harmonicity trace conditions of that kind over sampled bundle
points (report field ``method: lift-blocks``); a plain check of an
explicit 2m-dimensional manifest emitted by ``lift`` runs the generic
identity-map tension instead (``method: identity-tension``).  The two
can disagree for the Sasaki-type lifts; see the README.

An explicit manifest may carry ``"definitions": [["name", "expr"], ...]``:
each expression is over the coordinates and the names defined before it,
and ``metric`` / ``hat_metric`` entries may use every name.  ``lift``
always prints its manifest that way, one definition per shared node of
the two lifted charts.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .exprlang import ExprError, ExprSyntaxError, parse_definitions
from .gallery import (
    EgorovSpec,
    GodelSpec,
    WalkerSpec,
    coordinate_names,
    egorov_metric,
    godel_metric,
    walker_metric,
)
from .harmonic import SamplingExhausted, check_harmonic
from .lifts import LiftKind, check_lift_conditions, lift_to_chart
from .metric import (
    ChartedMetric,
    MetricDegenerate,
    christoffel_at,
    curvature_at,
    inverse_metric_at,
    metric_at,
    shared_component_sources,
)

__all__ = ["main", "ManifestError", "load_manifest", "build_metrics"]

LIFT_NAMES = ("none",) + tuple(k.value for k in LiftKind)
DEFAULTS = {"samples": 64, "tol": 1e-9, "seed": 42, "lift": "none"}


class ManifestError(ValueError):
    pass


class UsageError(Exception):
    """A command-line syntax error, reported like every other input error."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _dump(doc: dict) -> str:
    # allow_nan=False: a NaN or infinity raises ValueError (an input error)
    # instead of printing tokens that strict JSON parsers reject
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _tool_doc() -> dict:
    return {"name": "metriclift", "version": __version__}


def load_manifest(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise ManifestError(f"cannot read manifest {path!r}: {err}") from err
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ManifestError(f"manifest {path!r} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")
    return doc


def manifest_sha256(manifest: dict) -> str:
    canon = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _integer(value, field: str) -> int:
    """A count or seed from the manifest: a JSON integer, or a number with
    an integral value.  Booleans, strings and fractions are errors."""
    # int() raises OverflowError for an infinity and ValueError for NaN
    if isinstance(value, (int, float)) and not isinstance(value, bool) and int(value) == value:
        return int(value)
    raise ManifestError(f"'{field}' must be an integer, got {json.dumps(value)}")


class _Expressions:
    """The ``definitions`` of a manifest, parsed over the chart its first
    explicit matrix declares, and the hash-cons table they live in.  Both
    matrices parse into that table, so a name is the very node of its
    expanded text; without definitions each matrix parses on its own."""

    def __init__(self, manifest: dict):
        raw = manifest.get("definitions", [])
        if not isinstance(raw, list):
            raise ManifestError("'definitions' must be a list of [name, expression] pairs")
        for k, item in enumerate(raw, 1):
            if not (isinstance(item, list) and len(item) == 2):
                raise ManifestError(
                    f"definition {k} must be a [name, expression] pair, "
                    f"got {json.dumps(item)[:60]}"
                )
            name, source = item
            if not isinstance(name, str):
                raise ManifestError(
                    f"definition {k} must be named by a string, got {json.dumps(name)[:60]}"
                )
            if not isinstance(source, str):
                raise ManifestError(f"definition '{name}' must be an expression string")
        self.definitions = raw
        self.table = {} if raw else None
        self.coords = None
        self.names: dict = {}

    def names_over(self, coords: tuple) -> dict:
        if not self.definitions:
            return self.names
        if self.coords is None:
            self.coords = coords
            try:
                self.names = parse_definitions(self.definitions, coords, self.table)
            except ExprError as err:
                raise ManifestError(f"in 'definitions': {err}") from None
        elif coords != self.coords:
            raise ManifestError("metric and hat metric must share the chart")
        return self.names


def _family_metric(fam: dict, dimension: int | None) -> ChartedMetric:
    if not isinstance(fam, dict) or "name" not in fam:
        raise ManifestError("family must be an object with a 'name' field")
    name = fam["name"]
    try:
        if name == "egorov":
            m = _integer(fam.get("m", dimension or 0), "m")
            if m < 3:
                raise ManifestError("egorov family needs 'm' >= 3")
            interval = tuple(fam.get("interval", (-1.0, 1.0)))
            return egorov_metric(EgorovSpec(m, str(fam["f"]), interval))
        if name == "walker":
            box = fam.get("box")
            spec = (
                WalkerSpec(str(fam["a"]), str(fam["b"]), str(fam["c"]))
                if box is None
                else WalkerSpec(
                    str(fam["a"]),
                    str(fam["b"]),
                    str(fam["c"]),
                    tuple(tuple(iv) for iv in box),
                )
            )
            return walker_metric(spec)
        if name == "godel":
            interval = tuple(fam.get("interval", (0.1, 1.0)))
            return godel_metric(GodelSpec(str(fam["H"]), str(fam["P"]), interval))
    except KeyError as err:
        raise ManifestError(f"family '{name}' is missing parameter {err}") from err
    except ValueError as err:
        raise ManifestError(f"invalid family '{name}': {err}") from err
    raise ManifestError(f"unknown family name {name!r}")


def _explicit_metric(manifest: dict, key: str, shared: _Expressions) -> ChartedMetric:
    entries = manifest[key]
    dim = manifest.get("dimension")
    coords = manifest.get("coordinates")
    if coords is None and dim is None:
        raise ManifestError("manifest needs 'dimension' or 'coordinates'")
    # every size is checked against the matrix before coordinate names
    # are built, so a huge 'dimension' allocates nothing
    m = len(entries)
    if dim is not None and _integer(dim, "dimension") != m:
        raise ManifestError(f"dimension {dim} does not match the {m}x{m} '{key}' matrix")
    if coords is not None and len(coords) != m:
        raise ManifestError(
            f"{len(coords)} coordinates do not match the {m}x{m} '{key}' matrix"
        )
    if any(len(r) != m for r in entries):
        raise ManifestError(f"'{key}' must be a {m}x{m} matrix of expression strings")
    if coords is None:
        coords = coordinate_names(m)
    domain = manifest.get("domain")
    if domain is None:
        domain = [(-1.0, 1.0)] * m
    if len(domain) != m:
        raise ManifestError("'domain' must give one [lo, hi] per coordinate")
    names = shared.names_over(tuple(coords))
    try:
        return ChartedMetric.from_strings(coords, entries, domain, shared.table, names)
    except ExprSyntaxError as err:
        raise ManifestError(f"in manifest entry '{key}': {err}") from err
    except ValueError as err:
        raise ManifestError(f"invalid '{key}': {err}") from err


def _one_metric(manifest: dict, key: str, fam_key: str, required: bool, shared):
    has_matrix = key in manifest
    has_family = fam_key in manifest
    if has_matrix and has_family:
        raise ManifestError(f"give exactly one of '{key}' or '{fam_key}'")
    if not (has_matrix or has_family):
        if required:
            raise ManifestError(f"manifest needs '{key}' or '{fam_key}'")
        return None
    if has_family:
        g = _family_metric(manifest[fam_key], manifest.get("dimension"))
        dim = manifest.get("dimension")
        if dim is not None and g.dim != _integer(dim, "dimension"):
            raise ManifestError(
                f"dimension {dim} does not match family dimension {g.dim}"
            )
        domain = manifest.get("domain")
        if domain is not None:
            if len(domain) != g.dim:
                raise ManifestError("'domain' must give one [lo, hi] per coordinate")
            g = dataclasses.replace(
                g, domain=tuple((float(lo), float(hi)) for lo, hi in domain)
            )
        return g
    return _explicit_metric(manifest, key, shared)


def build_metrics(manifest: dict, need_hat: bool):
    shared = _Expressions(manifest)
    g = _one_metric(manifest, "metric", "family", True, shared)
    ghat = _one_metric(manifest, "hat_metric", "hat_family", need_hat, shared)
    if ghat is not None and ghat.coords != g.coords:
        raise ManifestError("metric and hat metric must share the chart")
    if shared.definitions and shared.coords is None:
        raise ManifestError("'definitions' need an explicit 'metric' or 'hat_metric' matrix")
    return g, ghat


def _merged(manifest: dict, args, key: str):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in manifest:
        return manifest[key]
    return DEFAULTS[key]


def _lift_kind(name: str) -> LiftKind | None:
    if name == "none":
        return None
    try:
        return LiftKind(name)
    except ValueError:
        raise ManifestError(
            f"unknown lift kind {name!r}; expected one of {', '.join(LIFT_NAMES)}"
        ) from None


def cmd_check(manifest: dict, args) -> tuple[int, str]:
    g, ghat = build_metrics(manifest, need_hat=True)
    samples = _integer(_merged(manifest, args, "samples"), "samples")
    tol = float(_merged(manifest, args, "tol"))
    seed = _integer(_merged(manifest, args, "seed"), "seed")
    lift = _lift_kind(str(_merged(manifest, args, "lift")))
    if lift is None:
        report = check_harmonic(g, ghat, samples=samples, tol=tol, seed=seed)
        method = "identity-tension"
    else:
        report = check_lift_conditions(
            g, ghat, lift, samples=samples, tol=tol, seed=seed
        )
        method = "lift-blocks"
    doc = {
        "tool": _tool_doc(),
        "manifest_sha256": manifest_sha256(manifest),
        "method": method,
        "lift": "none" if lift is None else lift.value,
        **report.as_dict(),
    }
    code = 0 if report.verdict == "harmonic-on-samples" else 1
    return code, _dump(doc)


def _lifted_manifest(manifest: dict, g, ghat, kind: LiftKind) -> dict:
    charts = [lift_to_chart(g, kind)]
    if ghat is not None:
        charts.append(lift_to_chart(ghat, kind))
    definitions, matrices = shared_component_sources(charts)
    lifted = charts[0]
    out = {
        "dimension": lifted.dim,
        "coordinates": list(lifted.coords),
        "definitions": definitions,
        "metric": matrices[0],
        "domain": [[lo, hi] for lo, hi in lifted.domain],
        "lift": "none",
    }
    if ghat is not None:
        out["hat_metric"] = matrices[1]
    for key in ("samples", "tol", "seed"):
        if key in manifest:
            out[key] = manifest[key]
    return out


def cmd_lift(manifest: dict, args) -> tuple[int, str]:
    kind = _lift_kind(str(_merged(manifest, args, "lift")))
    if kind is None:
        echo = dict(manifest)
        echo["lift"] = "none"
        return 0, _dump(echo)
    g, ghat = build_metrics(manifest, need_hat=False)
    return 0, _dump(_lifted_manifest(manifest, g, ghat, kind))


def _parse_point(text: str, dim: int) -> np.ndarray:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as err:
        raise ManifestError(f"cannot parse point {text!r}: {err}") from err
    if len(vals) != dim:
        raise ManifestError(
            f"point has {len(vals)} entries, chart has {dim} coordinates"
        )
    return np.asarray(vals)


def cmd_tensors(manifest: dict, args) -> tuple[int, str]:
    if args.at is None:
        raise ManifestError("tensors needs --at \"v1,v2,...\"")
    g, _ = build_metrics(manifest, need_hat=False)
    x = _parse_point(args.at, g.dim)
    G = metric_at(g, x)
    Ginv = inverse_metric_at(g, x)
    gamma = christoffel_at(g, x).array
    riem = curvature_at(g, x).array
    nonzero = {}
    m = g.dim
    for k in range(m):
        for i in range(m):
            for j in range(m):
                v = gamma[k, i, j]
                if v != 0.0:
                    nonzero[f"Gamma^{k + 1}_{i + 1},{j + 1}"] = float(v)
    doc = {
        "tool": _tool_doc(),
        "manifest_sha256": manifest_sha256(manifest),
        "point": [float(v) for v in x],
        "coordinates": list(g.coords),
        "metric": G.tolist(),
        "inverse": Ginv.tolist(),
        "christoffel": gamma.tolist(),
        "christoffel_nonzero": nonzero,
        "curvature": riem.tolist(),
    }
    return 0, _dump(doc)


@functools.cache  # built on first use, then reused: parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="metriclift",
        description="harmonicity checks and bundle lifts for charted metrics",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("check", cmd_check), ("lift", cmd_lift), ("tensors", cmd_tensors)):
        p = sub.add_parser(name)
        p.add_argument("--manifest", required=True)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--lift", choices=LIFT_NAMES, default=None)
        p.add_argument("--at", default=None)
        p.set_defaults(fn=fn)
    return ap


def _error(kind: str, message: str) -> int:
    doc = {"tool": _tool_doc(), "error": {"kind": kind, "message": message}}
    sys.stdout.write(_dump(doc))
    return 2


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        manifest = load_manifest(args.manifest)
        code, out = args.fn(manifest, args)
    except (
        UsageError,
        ManifestError,
        ExprError,
        MetricDegenerate,
        SamplingExhausted,
        ValueError,
        OverflowError,
        TypeError,  # a manifest field of the wrong JSON type
    ) as err:
        return _error(type(err).__name__, str(err))
    except RecursionError as err:
        # parsing, printing and evaluation recurse once per nesting level
        return _error(
            "RecursionError",
            f"an expression (or the manifest) is nested too deeply to process: {err}",
        )
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
