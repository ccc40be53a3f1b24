"""Experiment configuration: JSON schema validation and object construction.

Validation is strict: unknown keys anywhere in the document are rejected
before anything is run, so a failed run never leaves partial outputs.
This module alone turns a document into the objects it names: load builds
the pair, obstacle, points, closed form and homotopy z' once, and the
runners read them from ``Config.built``.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from functools import partial

import numpy as np

from .discs import cesaro_convergence
from .domains import (
    ball,
    counterexample_pair,
    planar_annulus_pair,
    shell_pair,
)
from .errors import ConfigurationError
from .expressions import compile_expression, obstacle_from_expression
from .families import (
    BlaschkeFamily,
    ConstantFamily,
    PolynomialFamily,
    ShellFamily,
    VerticalFamily,
)
from .hartogs import HartogsPair, vertical_disc
from .oracles import _nodes, grid_obstacle_solver

BUILTIN_OBSTACLES = {
    "log_abs": "log(abs(z1))",
    "re_first": "re(z1)",
}


def _hartogs_pair(n=2, base_radius=1.0, r=0.25, R=1.0):
    """The Hartogs pair over a ball; a number radius is a callable that
    returns its float, which the margins broadcast over the nodes.  With
    a number R, X is a ball times a disc, so the maximum principle holds
    on it."""
    radii = [compile_expression(v, n - 1, f"config.pair.{key}")
             if isinstance(v, str) else lambda zp, v=float(v): v
             for key, v in (("r", r), ("R", R))]
    hp = HartogsPair(ball(base_radius, n - 1), *radii)
    hp.X.max_principle = not isinstance(R, str)
    return hp.W, hp.X, None, hp


#: Each pair variant's builder, which returns (W, X[, phi[, hartogs]]),
#: and the config keys it takes as keywords.
PAIR_VARIANTS = {
    "planar_annulus": (planar_annulus_pair, ()),
    "shell": (shell_pair, ("n",)),
    "counterexample": (counterexample_pair,
                       ("delta", "tau", "rho_u", "eps_moll")),
    "hartogs": (_hartogs_pair, ("n", "base_radius", "r", "R")),
}

#: Each oracle kind's solver, if it takes config keys, and the keys it
#: reads besides ``kind``.
ORACLE_KINDS = {"kiselman": (None, ()),
                "grid": (grid_obstacle_solver, ("spacing",)),
                "closed_form": (None, ("expr",))}

#: The largest quadrature_m: the search cuts its rounds at
#: hartogs.TRACE_BATCH_NODES nodes, so a batch at this M holds one disc,
#: 2**16 boundary samples (2 MB per complex array in C^2).
MAX_QUADRATURE_M = 2 ** 16
MAX_STARTS = 2 ** 10  # the search builds every start before its first round
MAX_HOMOTOPY_STEPS = 2 ** 16  # a trace allocates its whole t-grid
MAX_GRID_NODES = 2 ** 12  # per side of the grid oracle's h/2 grid
MAX_CESARO_SAMPLES = 2 ** 20  # m * m_w: the loop holds every sample

#: Each family kind's class, and the config keys it takes under their
#: keyword names; a key the config leaves out keeps the class default.
FAMILY_KINDS = {
    "constant": (ConstantFamily, {}),
    "polynomial": (PolynomialFamily, {"degree": "degree", "scale": "scale"}),
    "shell": (ShellFamily, {}),
    "vertical": (VerticalFamily, {"winding": "winding", "s_range": "s_range"}),
    "blaschke": (BlaschkeFamily, {"zeros": "n_zeros", "s_range": "s_range"}),
}
#: The homotopy's disc builder and the config keys it takes, as in
#: FAMILY_KINDS.
HOMOTOPY_DISC = (vertical_disc, {"s": "s", "winding": "k"})


def _require(cond, path, message):
    if not cond:
        raise ConfigurationError(f"{path}: {message}")


def _is_int(value):
    """An int that is not a bool (JSON's true and false are not numbers)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    """An int that fits in a float, or a finite float (JSON's NaN and
    Infinity are not numbers, and a 400-digit int overflows a float)."""
    if _is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


def _is_numbers(value, size):
    return isinstance(value, (list, tuple)) and len(value) == size \
        and all(_is_number(v) for v in value)


def _at_least(low, message=None, high=math.inf):
    """The rule of an integer >= low (and <= high)."""
    return (lambda value: _is_int(value) and low <= value <= high,
            message or f"expected integer >= {low}"
            + (f" and <= {high}" if high < math.inf else ""))


def _power_of_two(low, high=math.inf):
    """The rule of a power of two >= low (and <= high)."""
    return (lambda value: _is_int(value) and low <= value <= high
            and value & (value - 1) == 0,
            f"expected a power of two >= {low}" if high == math.inf
            else f"expected a power of two from {low} to {high}")


def _named(table, noun):
    """The rule of a name in ``table`` (an unhashable value is none)."""
    return (lambda value: isinstance(value, str) and value in table,
            f"unknown {noun} {{!r}}")


def _apply(rule, value, path):
    """Check a value against its rule: (test, message), a function of the
    value and its path, or a list of rules checked in turn."""
    if isinstance(rule, list):
        for each in rule:
            _apply(each, value, path)
    elif callable(rule):
        rule(value, path)
    else:
        _require(rule[0](value), path, rule[1].format(value))


def _check(block, path, rules, kinds=None):
    """Check a block's values against its rules, in table order; a block
    with kinds has its kind's name as its first key."""
    _require(block is not _REQUIRED, path, "required")
    _require(isinstance(block, dict), path, "expected an object")
    allowed, of = rules, ""
    if kinds is not None:
        head = next(iter(rules))
        kind = block.get(head)
        _apply(rules[head], kind, f"{path}.{head}")
        allowed, of = {head, *kinds[kind][1]}, f" for {head} {kind!r}"
    unknown = set(block) - set(allowed)
    _require(not unknown, path, f"unknown keys {sorted(unknown)}{of}")
    for key, rule in rules.items():
        if key in block:
            _apply(rule, block[key], f"{path}.{key}")


def _list_of(rule):
    """The rule of a list whose every item keeps ``rule``."""
    def check(items, path):
        _require(isinstance(items, list), path, "expected list")
        for i, item in enumerate(items):
            _apply(rule, item, f"{path}[{i}]")
    return check


def _default(block, key, builder, name=None):
    """``block[key]``, or else the default of ``builder``'s ``name``."""
    return block[key] if key in block \
        else inspect.signature(builder).parameters[name or key].default


def _grid_nodes(spacing, path):
    """The grid oracle's node cap, on the solver's (square) default box."""
    lo, hi = _default({}, "bounds", grid_obstacle_solver)[:2]
    sides = _nodes(lo, hi, spacing / 2)  # a float: inf at a tiny spacing
    _require(sides <= MAX_GRID_NODES, path,
             f"expected at most {MAX_GRID_NODES} nodes per side at spacing "
             f"/ 2, got {sides:.4g} from spacing {spacing}")


class Config(dict):
    """The effective config dict (round-trippable through JSON).  ``built``
    holds what load built from it: (W, X, phi or None, the Hartogs pair or
    None, the points, the closed-form oracle or None, the homotopy z' or
    None)."""


def _spanning(cfg):
    """Check the rules that span keys, or need a key, in one fixed order;
    a key left out counts at the default of the builder it goes to.
    Returns what they built, as ``Config.built``."""
    nodes, pair = cfg["quadrature_m"], cfg["pair"]
    oracle = cfg.get("oracle") or {}
    obst, homotopy, cesaro = map(cfg.get, ("obstacle", "homotopy", "cesaro"))
    _require(obst is None or ("expr" in obst) != ("builtin" in obst),
             "config.obstacle", "exactly one of 'expr' or 'builtin' required")
    if pair["variant"] == "hartogs":
        r, R = (_default(pair, key, _hartogs_pair) for key in ("r", "R"))
        _require(not (_is_number(r) and _is_number(R)) or r < R,
                 "config.pair.r", f"expected r < R, got r = {r} >= R = {R}")
    # a size k of a loop on M nodes needs 2k < M
    sized = [(f"config.families[{i}]", fam, *FAMILY_KINDS[fam["kind"]])
             for i, fam in enumerate(cfg["families"])]
    if homotopy is not None:
        sized.append(("config.homotopy", homotopy, *HOMOTOPY_DISC))
    for path, block, builder, keys in sized:
        for key in [k for k in keys if k in ("degree", "zeros", "winding")]:
            k = _default(block, key, builder, keys[key])
            _require(2 * k < nodes, f"{path}.{key}",
                     f"expected < quadrature_m / 2 = {nodes // 2}")
    kind = oracle.get("kind")
    _require(kind != "kiselman" or pair["variant"] == "hartogs",
             "config.oracle", "kiselman oracle needs a hartogs pair")
    _require(kind != "grid" or pair["variant"] == "planar_annulus",
             "config.oracle", "grid oracle needs a planar pair (one complex "
             "dimension)")
    _require(kind != "closed_form" or "expr" in oracle,
             "config.oracle.expr", "closed_form oracle needs 'expr'")
    w, x_spec, phi, hartogs = build_pair(cfg)
    phi = build_obstacle(cfg, x_spec.n) if obst else phi
    _require(kind != "kiselman" or phi is None or phi.rotation_invariant_last,
             "config.oracle", f"kiselman oracle needs an obstacle in which "
             f"z{x_spec.n} enters only through abs(z{x_spec.n})")
    closed_form = None if kind != "closed_form" else obstacle_from_expression(
        oracle["expr"], x_spec.n, "config.oracle.expr")
    points = [parse_point(p, x_spec.n, f"config.points[{i}]")
              for i, p in enumerate(cfg["points"])]
    for i, point in enumerate(points):
        path = f"config.points[{i}]"
        _require(x_spec.margin(point[None, :])[0] > 0, path,
                 f"centre {tuple(point.tolist())} lies outside X")
        if kind == "kiselman":
            with np.errstate(all="ignore"):
                r, R = hartogs.radii(point[:-1])
            _require(r < R, path,
                     f"empty fiber: r = {r} >= R = {R} at the base point")
            # in W (r < |z_n| < R) the fibre infimum is not the envelope
            _require(not r < abs(point[-1]) < R, path,
                     f"kiselman oracle needs |z{x_spec.n}| <= r, as in W its "
                     f"value is not the envelope; got r = {r} < "
                     f"|z{x_spec.n}| = {abs(point[-1])} < R = {R}")
    _require(homotopy is None or "z_prime" in homotopy,
             "config.homotopy.z_prime", "required")
    z_prime = parse_point(homotopy["z_prime"], hartogs.n - 1,
                          "config.homotopy.z_prime") \
        if homotopy is not None and hartogs is not None else None
    if cesaro is not None:
        m, m_w, j_values = (_default(cesaro, key, cesaro_convergence)
                            for key in ("m", "m_w", "j_values"))
        _require(m * m_w <= MAX_CESARO_SAMPLES,
                 f"config.cesaro.{'m_w' if 'm_w' in cesaro else 'm'}",
                 f"expected m * m_w <= {MAX_CESARO_SAMPLES}, got {m} * {m_w}")
        for i, j in enumerate(j_values):
            _require(4 * j + 4 <= m_w, f"config.cesaro.j_values[{i}]",
                     f"expected 4 j + 4 <= m_w = {m_w}, got j = {j}")
    return w, x_spec, phi, hartogs, points, closed_form, z_prime


_REQUIRED = object()  # the default of a key that a config must set
_ANY = (lambda value: True, "")
_NUMBER = (_is_number, "expected a number")
_STRING = (lambda value: isinstance(value, str), "expected a string")
_NONNEGATIVE = _at_least(0, "expected nonnegative integer")
_POSITIVE = (lambda value: _is_number(value) and value > 0,
             "expected a positive number")
_RADIUS = (lambda value: _is_number(value) or isinstance(value, str),
           "expected a number or expression")

#: The value rule of each key of each config block, in the order they are
#: checked; a block with kinds has its kind's name as its first key.
PAIR_RULES = {
    "variant": _named(PAIR_VARIANTS, "variant"),
    # the ranges that counterexample_pair itself checks
    "delta": (lambda v: _is_number(v) and 0 < v < 0.5,
              "expected a number in (0, 1/2)"),
    "tau": (lambda v: _is_number(v) and 0 < v < 0.2,
            "expected a number in (0, 0.2)"),
    "rho_u": _NUMBER, "eps_moll": _POSITIVE,
    "base_radius": _NUMBER, "n": _at_least(2), "r": _RADIUS, "R": _RADIUS,
}
OBSTACLE_RULES = {
    "builtin": _named(BUILTIN_OBSTACLES, "builtin"),
    "expr": _STRING,
    # accepted, read by nothing: the Kiselman rule derives it from the tape
    "rotation_invariant": (lambda value: isinstance(value, bool),
                           "expected true or false"),
}
FAMILY_RULES = {
    "kind": _named(FAMILY_KINDS, "family kind"),
    "degree": _at_least(1), "zeros": _at_least(1), "winding": _at_least(1),
    "scale": _NUMBER,
    "s_range": (lambda v: _is_numbers(v, 2) and 0 < v[0] < v[1],
                "expected [lo, hi] with 0 < lo < hi"),
}
ORACLE_RULES = {
    "kind": _named(ORACLE_KINDS, "oracle"),
    "expr": _STRING,
    "spacing": [_POSITIVE, _grid_nodes],
}
TOLERANCES_RULES = {"gap": [_NUMBER, (lambda value: value >= 0,
                                         "expected a number >= 0")]}
HOMOTOPY_RULES = {"winding": _at_least(1),
                  "steps": _at_least(1, high=MAX_HOMOTOPY_STEPS),
                  "s": _NUMBER, "z_prime": _ANY}
#: The loop's z-discs need m >= 8 and its base disc, sampled on the
#: w-grid, needs m_w >= 8.
CESARO_RULES = {
    "m": _power_of_two(8), "m_w": _power_of_two(8),
    "j_values": (lambda js: isinstance(js, (list, tuple))
                 and all(_is_int(j) and j >= 0 for j in js),
                 "expected a list of integers >= 0"),
    "amplitude": _NUMBER,
}
TOP_RULES = {
    "experiment": (lambda value: isinstance(value, str), "required string"),
    "pair": partial(_check, rules=PAIR_RULES, kinds=PAIR_VARIANTS),
    "obstacle": partial(_check, rules=OBSTACLE_RULES),
    "points": _list_of((lambda point: isinstance(point, list)
                        and all(isinstance(c, list) and _is_numbers(c, 2)
                                for c in point),
                        "expected [re, im] number pairs")),
    # nonnegative first, so that -1 is named as such
    "quadrature_m": [_NONNEGATIVE, _power_of_two(8, MAX_QUADRATURE_M)],
    "seed": _NONNEGATIVE,
    "starts": _at_least(1, high=MAX_STARTS), "budget": _at_least(1),
    "families": _list_of(partial(_check, rules=FAMILY_RULES,
                                 kinds=FAMILY_KINDS)),
    "penalty_weight": _POSITIVE,
    "oracle": lambda oracle, path: oracle is None or _check(
        oracle, path, ORACLE_RULES, ORACLE_KINDS),
    "tolerances": partial(_check, rules=TOLERANCES_RULES),
    "homotopy": partial(_check, rules=HOMOTOPY_RULES),
    "cesaro": partial(_check, rules=CESARO_RULES),
    "output": _ANY,
}


def load_config(path, overrides=None):
    """The validated config of the JSON document at ``path``, with the
    keys of ``overrides`` set over the document's before it is checked."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    if isinstance(raw, dict):
        raw.update(overrides or {})
    return validate_config(raw)


def validate_config(raw):
    """Validate the raw document and fill defaults; returns the effective
    config, a ``Config``.  Every value is checked against its own rule
    first, then the rules that span keys."""
    cfg = raw if not isinstance(raw, dict) else Config({
        "experiment": _REQUIRED, "pair": _REQUIRED, "points": [],
        "quadrature_m": 512, "seed": 0, "starts": 8, "budget": 400,
        "penalty_weight": 1e3, "families": [], **raw})
    _check(cfg, "config", TOP_RULES)
    cfg.built = _spanning(cfg)
    return cfg


# ---------------------------------------------------------------------------
# Construction from a validated config
# ---------------------------------------------------------------------------

def given(block, keys):
    """The ``keys`` that ``block`` sets, by parameter name (a dict maps each
    key to its name); a key left out keeps the callee's default."""
    names = keys if isinstance(keys, dict) else dict(zip(keys, keys))
    return {arg: block[key] for key, arg in names.items() if key in block}


def build_pair(cfg):
    """Returns (W, X, phi_or_None, hartogs_pair_or_None)."""
    builder, keys = PAIR_VARIANTS[cfg["pair"]["variant"]]
    return (*builder(**given(cfg["pair"], keys)), None, None)[:4]


def build_obstacle(cfg, n):
    obst = cfg.get("obstacle")
    if obst is None:
        raise ConfigurationError("config.obstacle: required for this command")
    key = "expr" if "expr" in obst else "builtin"
    expr = obst["expr"] if key == "expr" else BUILTIN_OBSTACLES[obst[key]]
    return obstacle_from_expression(expr, n, f"config.obstacle.{key}")


def parse_point(entry, n, path="config.points"):
    _require(isinstance(entry, list) and len(entry) == n, path,
             f"point must list {n} coordinates as [re, im] pairs")
    coords = []
    for c in entry:
        _require(isinstance(c, list) and _is_numbers(c, 2), path,
                 "coordinate must be an [re, im] pair of numbers")
        coords.append(complex(c[0], c[1]))
    return np.asarray(coords, dtype=complex)


def build_families(cfg, centre, hartogs=None):
    fams = []
    for spec in cfg["families"]:
        cls, keys = FAMILY_KINDS[spec["kind"]]
        kwargs = given(spec, keys)
        if "s_range" in kwargs:
            kwargs["s_range"] = tuple(kwargs["s_range"])
        fams.append(cls(centre, **kwargs))
    return fams
