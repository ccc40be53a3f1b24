"""Experiment configuration: JSON schema validation and object construction.

Validation is strict: unknown keys anywhere in the document are rejected
before anything is run, so a failed run never leaves partial outputs.
"""

from __future__ import annotations

import inspect
import json
import math
import sys

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


def _hartogs_pair(n=2, base_radius=1.0, r=0.25, R=1.0):
    """The Hartogs pair over a ball; a number radius is a constant
    expression (repr writes a float exactly)."""
    radii = [compile_expression(v if isinstance(v, str) else repr(float(v)),
                                n - 1) for v in (r, R)]
    hp = HartogsPair(ball(base_radius, n - 1), *radii)
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

#: The keys each oracle kind reads besides ``kind`` (GridConfig fields).
ORACLE_KINDS = {"kiselman": (), "grid": ("spacing", "bounds"),
                "closed_form": ("expr",)}

#: The largest quadrature_m: a lockstep batch of the default 8 starts has
#: 8 x 2**16 boundary samples, about 17 MB per complex array in C^2.
MAX_QUADRATURE_M = 2 ** 16

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
    """An int that fits in a float, or a finite float (JSON's NaN and
    Infinity are not numbers, and a 400-digit int overflows a float)."""
    if _is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


def _is_coordinate(value):
    return isinstance(value, list) and len(value) == 2 \
        and all(_is_number(v) for v in value)


def _require_int(obj, key, path, low, m=None):
    """An optional key of ``obj``, if present, must be an integer >= low,
    and below m/2 when m is given: a winding k on m nodes needs k < m/2."""
    if key in obj:
        _require(_is_int(obj[key]) and obj[key] >= low,
                 f"{path}.{key}", f"expected integer >= {low}")
        if m is not None:
            _require(obj[key] < m / 2, f"{path}.{key}",
                     f"expected < quadrature_m / 2 = {m // 2}")


def _require_number(obj, key, path):
    """An optional key of ``obj``, if present, must be a number."""
    if key in obj:
        _require(_is_number(obj[key]), f"{path}.{key}", "expected a number")


def _check_keys(obj, allowed, path, of=""):
    _require(isinstance(obj, dict), path, "expected an object")
    unknown = set(obj) - set(allowed)
    _require(not unknown, path, f"unknown keys {sorted(unknown)}{of}")


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
    _require(8 <= m <= MAX_QUADRATURE_M and (m & (m - 1)) == 0,
             "config.quadrature_m",
             f"expected a power of two from 8 to {MAX_QUADRATURE_M}")
    cfg.setdefault("families", [])
    _require(isinstance(cfg["families"], list), "config.families",
             "expected list")
    for i, fam in enumerate(cfg["families"]):
        _validate_family(fam, f"config.families[{i}]", m)
    _require(_is_number(cfg["penalty_weight"]) and cfg["penalty_weight"] > 0,
             "config.penalty_weight", "expected a positive number")
    if cfg.get("oracle") is not None:
        _validate_oracle(cfg["oracle"])
    if "tolerances" in cfg:
        _check_keys(cfg["tolerances"], {"gap"}, "config.tolerances")
        _require_number(cfg["tolerances"], "gap", "config.tolerances")
    if "homotopy" in cfg:
        _validate_homotopy(cfg["homotopy"], m)
    if "cesaro" in cfg:
        _validate_cesaro(cfg["cesaro"])
    return cfg


def _validate_homotopy(spec, m):
    _check_keys(spec, {"z_prime", "s", "winding", "steps"}, "config.homotopy")
    _require_int(spec, "winding", "config.homotopy", 1, m)
    _require_int(spec, "steps", "config.homotopy", 1)
    _require_number(spec, "s", "config.homotopy")
    _require("z_prime" in spec, "config.homotopy.z_prime", "required")


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
    _require(isinstance(pair, dict), "config.pair", "expected an object")
    variant = pair.get("variant")
    _require(isinstance(variant, str) and variant in PAIR_VARIANTS,
             "config.pair.variant", f"unknown variant {variant!r}")
    _check_keys(pair, {"variant", *PAIR_VARIANTS[variant][1]}, "config.pair",
                f" for variant {variant!r}")
    for key in ("delta", "tau", "rho_u", "eps_moll", "base_radius"):
        _require_number(pair, key, "config.pair")
    _require_int(pair, "n", "config.pair", 2)
    for key in ("r", "R"):
        _require(_is_number(pair.get(key, 0)) or isinstance(pair[key], str),
                 f"config.pair.{key}", "expected a number or expression")
    if variant == "hartogs":
        # a radius left out is _hartogs_pair's default
        params = inspect.signature(_hartogs_pair).parameters
        r, R = (pair.get(key, params[key].default) for key in ("r", "R"))
        _require(not (_is_number(r) and _is_number(R)) or r < R,
                 "config.pair.r", f"expected r < R, got r = {r} >= R = {R}")


def _validate_obstacle(obst):
    _check_keys(obst, {"expr", "builtin", "rotation_invariant"},
                "config.obstacle")
    _require(("expr" in obst) != ("builtin" in obst), "config.obstacle",
             "exactly one of 'expr' or 'builtin' required")
    if "builtin" in obst:
        _require(isinstance(obst["builtin"], str)
                 and obst["builtin"] in BUILTIN_OBSTACLES,
                 "config.obstacle.builtin",
                 f"unknown builtin {obst['builtin']!r}")
    else:
        _require(isinstance(obst["expr"], str), "config.obstacle.expr",
                 "expected a string")
    _require(isinstance(obst.get("rotation_invariant", False), bool),
             "config.obstacle.rotation_invariant", "expected true or false")


def _validate_family(fam, path, m):
    _require(isinstance(fam, dict), path, "expected an object")
    kind = fam.get("kind")
    _require(isinstance(kind, str) and kind in FAMILY_KINDS,
             f"{path}.kind", f"unknown family kind {kind!r}")
    _check_keys(fam, {"kind", *FAMILY_KINDS[kind][1]}, path,
                f" for kind {kind!r}")
    for key in ("degree", "zeros", "winding"):
        _require_int(fam, key, path, 1, m)
    _require_number(fam, "scale", path)
    if "s_range" in fam:
        lo_hi = fam["s_range"]
        _require(isinstance(lo_hi, (list, tuple)) and len(lo_hi) == 2
                 and all(_is_number(v) for v in lo_hi)
                 and 0 < lo_hi[0] < lo_hi[1],
                 f"{path}.s_range", "expected [lo, hi] with 0 < lo < hi")


def _validate_oracle(oracle):
    _require(isinstance(oracle, dict), "config.oracle", "expected an object")
    kind = oracle.get("kind")
    _require(isinstance(kind, str) and kind in ORACLE_KINDS,
             "config.oracle.kind", f"unknown oracle {kind!r}")
    _check_keys(oracle, {"kind", *ORACLE_KINDS[kind]}, "config.oracle",
                f" for kind {kind!r}")
    _require(kind != "closed_form" or isinstance(oracle.get("expr"), str),
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
        kwargs = given(spec, keys)
        if "s_range" in kwargs:
            kwargs["s_range"] = tuple(kwargs["s_range"])
        fams.append(cls(centre, **kwargs))
    if not fams:
        raise ConfigurationError("config.families: at least one family needed")
    return fams
