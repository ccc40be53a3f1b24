"""Experiment configuration: JSON schema validation and object construction.

Validation is strict: unknown keys anywhere in the document are rejected
before anything is run, so a failed run never leaves partial outputs.
"""

from __future__ import annotations

import json
import math

import numpy as np

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
from .hartogs import HartogsPair

BUILTIN_OBSTACLES = {
    "log_abs": "log(abs(z1))",
    "re_first": "re(z1)",
}

#: Each family kind's class, and the config keys it takes under their
#: keyword names; a key the config leaves out keeps the class default.
FAMILY_KINDS = {
    "constant": (ConstantFamily, {}),
    "polynomial": (PolynomialFamily, {"degree": "degree", "scale": "scale"}),
    "shell": (ShellFamily, {}),
    "vertical": (VerticalFamily, {"winding": "winding", "s_range": "s_range"}),
    "blaschke": (BlaschkeFamily, {"zeros": "n_zeros", "s_range": "s_range"}),
}

_TOP_KEYS = {
    "experiment", "pair", "obstacle", "points", "families", "quadrature_m",
    "seed", "starts", "budget", "penalty_weight", "oracle", "tolerances",
    "homotopy", "cesaro", "output",
}


def _require(cond, path, message):
    if not cond:
        raise ConfigurationError(f"{path}: {message}")


def _is_int(value):
    """An int that is not a bool (JSON's true and false are not numbers)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    """An int or a finite float (JSON's NaN and Infinity are not)."""
    return _is_int(value) \
        or (isinstance(value, float) and math.isfinite(value))


def _is_coordinate(value):
    return isinstance(value, list) and len(value) == 2 \
        and all(_is_number(v) for v in value)


def _require_int(obj, key, path, low):
    """An optional key of ``obj``, if present, must be an integer >= low."""
    if key in obj:
        _require(_is_int(obj[key]) and obj[key] >= low,
                 f"{path}.{key}", f"expected integer >= {low}")


def _require_number(obj, key, path):
    """An optional key of ``obj``, if present, must be a number."""
    if key in obj:
        _require(_is_number(obj[key]), f"{path}.{key}", "expected a number")


def _check_keys(obj, allowed, path):
    _require(isinstance(obj, dict), path, "expected an object")
    unknown = set(obj) - set(allowed)
    _require(not unknown, path, f"unknown keys {sorted(unknown)}")


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return validate_config(raw)


def validate_config(raw):
    """Validate the raw document and fill defaults; returns the effective
    config dict (round-trippable through JSON)."""
    _check_keys(raw, _TOP_KEYS, "config")
    cfg = dict(raw)
    _require("experiment" in cfg and isinstance(cfg["experiment"], str),
             "config.experiment", "required string")
    _require("pair" in cfg, "config.pair", "required")
    _validate_pair(cfg["pair"])
    if "obstacle" in cfg:
        _validate_obstacle(cfg["obstacle"])
    cfg.setdefault("points", [])
    _require(isinstance(cfg["points"], list), "config.points", "expected list")
    for i, point in enumerate(cfg["points"]):
        _require(isinstance(point, list)
                 and all(_is_coordinate(c) for c in point),
                 f"config.points[{i}]", "expected [re, im] number pairs")
    cfg.setdefault("families", [])
    for i, fam in enumerate(cfg["families"]):
        _validate_family(fam, f"config.families[{i}]")
    cfg.setdefault("quadrature_m", 512)
    cfg.setdefault("seed", 0)
    cfg.setdefault("starts", 8)
    cfg.setdefault("budget", 400)
    cfg.setdefault("penalty_weight", 1e3)
    for key in ("quadrature_m", "seed"):
        _require(_is_int(cfg[key]) and cfg[key] >= 0,
                 f"config.{key}", "expected nonnegative integer")
    for key in ("starts", "budget"):
        _require(_is_int(cfg[key]) and cfg[key] >= 1,
                 f"config.{key}", "expected integer >= 1")
    m = cfg["quadrature_m"]
    _require(m >= 8 and (m & (m - 1)) == 0, "config.quadrature_m",
             "expected a power of two >= 8")
    _require(_is_number(cfg["penalty_weight"]) and cfg["penalty_weight"] > 0,
             "config.penalty_weight", "expected a positive number")
    if cfg.get("oracle") is not None:
        _validate_oracle(cfg["oracle"])
    if "tolerances" in cfg:
        _check_keys(cfg["tolerances"], {"gap"}, "config.tolerances")
        _require_number(cfg["tolerances"], "gap", "config.tolerances")
    if "homotopy" in cfg:
        _validate_homotopy(cfg["homotopy"])
    if "cesaro" in cfg:
        _validate_cesaro(cfg["cesaro"])
    return cfg


def _validate_homotopy(spec):
    _check_keys(spec, {"z_prime", "s", "winding", "steps"}, "config.homotopy")
    for key in ("winding", "steps"):
        _require_int(spec, key, "config.homotopy", 1)
    _require_number(spec, "s", "config.homotopy")


def _validate_cesaro(spec):
    _check_keys(spec, {"m", "m_w", "j_values", "amplitude"}, "config.cesaro")
    for key in ("m", "m_w"):
        _require_int(spec, key, "config.cesaro", 1)
    if "j_values" in spec:
        js = spec["j_values"]
        _require(isinstance(js, (list, tuple))
                 and all(_is_int(j) and j >= 0 for j in js),
                 "config.cesaro.j_values", "expected a list of integers >= 0")
    _require_number(spec, "amplitude", "config.cesaro")


def _validate_pair(pair):
    _check_keys(pair, {"variant", "n", "delta", "tau", "rho_u", "eps_moll",
                       "base_radius", "r", "R"}, "config.pair")
    variant = pair.get("variant")
    _require(variant in {"planar_annulus", "shell", "hartogs",
                         "counterexample"},
             "config.pair.variant", f"unknown variant {variant!r}")
    for key in ("delta", "tau", "rho_u", "eps_moll", "base_radius"):
        _require_number(pair, key, "config.pair")
    if variant in ("shell", "hartogs"):
        _require(_is_int(pair.get("n", 2)) and pair.get("n", 2) >= 2,
                 "config.pair.n", f"{variant} needs integer n >= 2")
    if variant == "hartogs":
        for key in ("r", "R"):
            value = pair.get(key, 1.0)
            _require(_is_number(value) or isinstance(value, str),
                     f"config.pair.{key}",
                     "expected a number or expression over z1..")


def _validate_obstacle(obst):
    _check_keys(obst, {"expr", "builtin", "rotation_invariant"},
                "config.obstacle")
    _require(("expr" in obst) != ("builtin" in obst), "config.obstacle",
             "exactly one of 'expr' or 'builtin' required")
    if "builtin" in obst:
        _require(obst["builtin"] in BUILTIN_OBSTACLES, "config.obstacle.builtin",
                 f"unknown builtin {obst['builtin']!r}")
    else:
        _require(isinstance(obst["expr"], str), "config.obstacle.expr",
                 "expected a string")
    _require(isinstance(obst.get("rotation_invariant", False), bool),
             "config.obstacle.rotation_invariant", "expected true or false")


def _validate_family(fam, path):
    _require(isinstance(fam, dict), path, "expected an object")
    kind = fam.get("kind")
    _require(isinstance(kind, str) and kind in FAMILY_KINDS,
             f"{path}.kind", f"unknown family kind {kind!r}")
    unknown = set(fam) - {"kind"} - set(FAMILY_KINDS[kind][1])
    _require(not unknown, path,
             f"unknown keys {sorted(unknown)} for kind {kind!r}")
    for key in ("degree", "zeros", "winding"):
        _require_int(fam, key, path, 1)
    _require_number(fam, "scale", path)
    if "s_range" in fam:
        lo_hi = fam["s_range"]
        _require(isinstance(lo_hi, (list, tuple)) and len(lo_hi) == 2
                 and all(_is_number(v) for v in lo_hi)
                 and 0 < lo_hi[0] < lo_hi[1],
                 f"{path}.s_range", "expected [lo, hi] with 0 < lo < hi")


def _validate_oracle(oracle):
    _check_keys(oracle, {"kind", "spacing", "bounds", "caps", "expr"},
                "config.oracle")
    _require(oracle.get("kind") in {"kiselman", "grid", "closed_form"},
             "config.oracle.kind", f"unknown oracle {oracle.get('kind')!r}")
    if oracle.get("kind") == "closed_form":
        _require(isinstance(oracle.get("expr"), str),
                 "config.oracle.expr", "closed_form oracle needs 'expr'")
    if "spacing" in oracle:
        _require(_is_number(oracle["spacing"]) and oracle["spacing"] > 0,
                 "config.oracle.spacing", "expected a positive number")
    if "bounds" in oracle:
        b = oracle["bounds"]
        _require(isinstance(b, (list, tuple)) and len(b) == 4
                 and all(_is_number(v) for v in b)
                 and b[0] < b[1] and b[2] < b[3], "config.oracle.bounds",
                 "expected [x_min, x_max, y_min, y_max] with min < max")
    if "caps" in oracle:
        caps = oracle["caps"]
        _require(isinstance(caps, (list, tuple)) and len(caps) > 0
                 and all(_is_number(c) for c in caps)
                 and list(caps) == sorted(caps), "config.oracle.caps",
                 "expected a nonempty increasing list of numbers")


# ---------------------------------------------------------------------------
# Construction from a validated config
# ---------------------------------------------------------------------------

def build_pair(cfg):
    """Returns (W, X, phi_or_None, hartogs_pair_or_None)."""
    pair = cfg["pair"]
    variant = pair["variant"]
    if variant == "planar_annulus":
        w, x = planar_annulus_pair()
        return w, x, None, None
    if variant == "shell":
        w, x = shell_pair(pair.get("n", 2))
        return w, x, None, None
    if variant == "counterexample":
        w, x, phi = counterexample_pair(
            delta=pair.get("delta", 0.3), tau=pair.get("tau", 0.05),
            rho_u=pair.get("rho_u", 0.05),
            eps_moll=pair.get("eps_moll", 0.01))
        return w, x, phi, None
    n = pair.get("n", 2)
    base = ball(pair.get("base_radius", 1.0), n - 1)
    hp = HartogsPair(base, _radius_fn(pair.get("r", 0.25), n - 1),
                     _radius_fn(pair.get("R", 1.0), n - 1))
    return hp.W, hp.X, None, hp


def _radius_fn(value, n_base):
    if isinstance(value, str):
        fn = compile_expression(value, n_base)
        return fn
    v = float(value)
    return lambda zp: np.full(np.asarray(zp).shape[:-1], v)


def build_obstacle(cfg, n):
    obst = cfg.get("obstacle")
    if obst is None:
        raise ConfigurationError("config.obstacle: required for this command")
    expr = obst["expr"] if "expr" in obst \
        else BUILTIN_OBSTACLES[obst["builtin"]]
    return obstacle_from_expression(
        expr, n, rotation_invariant_last=obst.get("rotation_invariant", False))


def parse_point(entry, n, path="config.points"):
    _require(isinstance(entry, list) and len(entry) == n, path,
             f"point must list {n} coordinates as [re, im] pairs")
    coords = []
    for c in entry:
        _require(_is_coordinate(c), path,
                 "coordinate must be an [re, im] pair of numbers")
        coords.append(complex(c[0], c[1]))
    return np.asarray(coords, dtype=complex)


def build_families(cfg, centre, hartogs=None):
    fams = []
    for spec in cfg["families"]:
        cls, keys = FAMILY_KINDS[spec["kind"]]
        kwargs = {arg: spec[key] for key, arg in keys.items() if key in spec}
        if "s_range" in kwargs:
            kwargs["s_range"] = tuple(kwargs["s_range"])
        fams.append(cls(centre, **kwargs))
    if not fams:
        raise ConfigurationError("config.families: at least one family needed")
    return fams
