"""Command line interface.

Verbs: ``stats``, ``baseline``, ``ulf``, ``wscw``, ``wscl``, ``grid``,
``synth``.  Each takes ``--config FILE`` (flat ``key=value`` lines, ``#``
comments) plus ``--key value`` / ``--key=value`` overrides whose names equal
the config field names.  For ``grid``, any int or float setting whose value
is a comma-separated list defines a grid axis.  ``stats`` reads only the four
input paths and rejects every other setting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import get_args, get_type_hints

from wsdenoise.corpus import _read_lines, dataset_stats, load_dataset, save_dataset
from wsdenoise.harness import RunConfig, grid_search, run
from wsdenoise.synth import SynthConfig, generate

VERBS = ("stats", "baseline", "ulf", "wscw", "wscl", "grid", "synth")
STATS_KEYS = ("doc_path", "z_path", "t_path", "gold_path")  # all that ``stats`` reads


def parse_config_file(path: str) -> dict:
    """Flat ``key=value`` lines and ``#`` comments, split into lines as the TSV inputs are."""
    out = {}
    for lineno, line in enumerate(_read_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path} line {lineno}: expected 'key=value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_overrides(args: list[str]) -> dict:
    out = {}
    i = 0
    while i < len(args):
        arg = args[i]
        if not arg.startswith("--"):
            raise ValueError(f"unexpected argument {arg!r}")
        body = arg[2:]
        if "=" in body:
            key, value = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(args):
                raise ValueError(f"missing value for --{key}")
            value = args[i + 1]
            i += 2
        out[key] = value
    return out


def _field_types(cls) -> dict:
    """Per dataclass field: (scalar type, whether the annotation admits None)."""
    out = {}
    for name, hint in get_type_hints(cls).items():
        members = get_args(hint) or (hint,)
        out[name] = (next(t for t in members if t is not type(None)), type(None) in members)
    return out


_RUN_TYPES = _field_types(RunConfig)
# each verb's method, else the verb itself; grid's is only a default
_METHOD_OF = {"baseline": "baseline_majority", "stats": "baseline_majority", "grid": "ulf"}


def _coerce(key: str, value: str, types: dict):
    """Parse one ``--key value`` string as the type its config field declares."""
    target_type, nullable = types[key]
    if nullable and value.lower() in ("none", ""):
        return None
    if target_type is bool:
        if value.lower() not in ("1", "true", "yes", "0", "false", "no"):
            raise ValueError(f"--{key}: invalid boolean {value!r}; "
                             "expected true/false, yes/no or 1/0")
        return value.lower() in ("1", "true", "yes")
    if target_type in (int, float):
        try:
            return target_type(value)
        except ValueError:
            raise ValueError(f"--{key}: expected {target_type.__name__}, got {value!r}") from None
    return value


def _build(cls, values: dict, **fixed):
    """A ``cls`` from ``fixed`` and the strings ``values``, each parsed as its field declares."""
    types = _field_types(cls)
    for key in values:
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
    return cls(**{key: _coerce(key, raw, types) for key, raw in values.items()}, **fixed)


def _build_grid(values: dict):
    """Split comma-valued int and float settings into a grid space."""
    space = {}
    scalars = {}
    for key, raw in values.items():
        if "," in raw and key in _RUN_TYPES and _RUN_TYPES[key][0] in (int, float):
            space[key] = [_coerce(key, v, _RUN_TYPES) for v in raw.split(",")]
        else:
            scalars[key] = raw
    return scalars, space


def _cmd_synth(values: dict) -> int:
    out_dir = values.pop("out_dir", "synth_data")
    raw, pairs = values.pop("misallocated_lfs", ""), []
    for item in raw.split(",") if raw else []:
        lf, _, cls = item.partition(":")
        try:
            pairs.append((int(lf), int(cls)))
        except ValueError:
            raise ValueError(f"--misallocated_lfs: expected LF:CLASS integer pairs, "
                             f"got {item!r}") from None
    ds, _ = generate(_build(SynthConfig, values, misallocated_lfs=pairs))
    os.makedirs(out_dir, exist_ok=True)
    save_dataset(
        ds,
        os.path.join(out_dir, "docs.tsv"),
        os.path.join(out_dir, "z.tsv"),
        os.path.join(out_dir, "t.tsv"),
        os.path.join(out_dir, "gold.tsv"),
    )
    print(json.dumps({"out_dir": out_dir, "n_samples": ds.n_samples,
                      "n_lfs": ds.n_lfs, "num_classes": ds.num_classes}))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(prog="wsdenoise",
                                     description="Weak-label denoising by k-fold cross-validation")
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("--config", default=None, help="flat key=value config file")
    ns, rest = parser.parse_known_args(argv)

    values = parse_config_file(ns.config) if ns.config else {}
    values.update(_parse_overrides(rest))
    if "budget" in values and ns.verb != "grid":
        raise ValueError(f"--budget is a grid option; the {ns.verb} verb does not take it")

    if ns.verb == "synth":
        return _cmd_synth(values)

    method = values.pop("method", _METHOD_OF.get(ns.verb, ns.verb))
    if ns.verb != "grid" and method != _METHOD_OF.get(ns.verb, ns.verb):
        raise ValueError(f"--method {method!r} disagrees with the {ns.verb} verb")

    if ns.verb == "stats":
        if unread := [key for key in values if key not in STATS_KEYS]:
            raise ValueError(f"the stats verb does not take --{unread[0]}; "
                             f"it reads only {', '.join(STATS_KEYS)}")
        cfg = _build(RunConfig, values, method=method)
        ds = load_dataset(cfg.doc_path, cfg.z_path, cfg.t_path, cfg.gold_path or None)
        print(json.dumps(dataset_stats(ds), indent=1, sort_keys=True))
        return 0

    if ns.verb == "grid":
        # a grid option, not a config field; a budget of none means no limit
        budget = _coerce("budget", values.pop("budget", "none"), {"budget": (int, True)})
        scalars, space = _build_grid(values)
        base = _build(RunConfig, scalars, method=method)
        if not space:
            raise ValueError("grid verb needs at least one comma-valued hyperparameter")
        best, results = grid_search(base, space, budget=budget)
        print(json.dumps({
            "best_params": {k: getattr(best, k) for k in space},
            "best_out_dir": best.out_dir,
            "points_evaluated": len(results),
        }, indent=1, sort_keys=True))
        return 0

    cfg = _build(RunConfig, values, method=method)
    metrics = run(cfg)
    summary = {key: metrics[key] for key in ("method", "metric", "mean", "sem", "dev_mean",
                                             "partial")}
    print(json.dumps({**summary, "out_dir": cfg.out_dir}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
