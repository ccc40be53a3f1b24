"""A minimal arithmetic grammar for obstacle functions over coordinates.

Supported: numeric constants, + - *, unary minus, and the calls
re(), im(), abs(), log(), max() applied to coordinate names z1..zN.
Anything else is rejected; this is deliberately not a scripting hook.
"""

from __future__ import annotations

import ast

import numpy as np

from .domains import Obstacle
from .errors import ConfigurationError

_FUNCS = {
    "re": np.real,
    "im": np.imag,
    "abs": np.abs,
    "log": np.log,
    "max": np.maximum,
}

#: Deepest syntax tree accepted.  Evaluation recurses once per level, so
#: a tree near the interpreter's recursion limit that compiles could
#: still fail when evaluated from deep inside a search.
_MAX_DEPTH = 100


def _depth(tree):
    """Levels of the syntax tree, counted without recursion."""
    depth, level = 0, [tree]
    while level:
        depth += 1
        level = [c for node in level for c in ast.iter_child_nodes(node)]
    return depth


def _compile_node(node, n):
    if isinstance(node, ast.Expression):
        return _compile_node(node.body, n)
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float):  # bool is an int subclass
            raise ConfigurationError(f"unsupported constant {node.value!r}")
        try:
            v = float(node.value)
        except OverflowError as exc:
            raise ConfigurationError(f"constant too large: {exc}") from exc
        return lambda pts: v
    if isinstance(node, ast.Name):
        name = node.id
        if not (name.startswith("z") and name[1:].isdigit()):
            raise ConfigurationError(f"unknown name {name!r}")
        try:
            idx = int(name[1:]) - 1
        except ValueError as exc:  # past the integer digit limit
            raise ConfigurationError(
                f"coordinate {name[:12]}... out of range for C^{n}"
            ) from exc
        if not 0 <= idx < n:
            raise ConfigurationError(
                f"coordinate {name} out of range for C^{n}")
        return lambda pts: pts[..., idx]
    if isinstance(node, ast.UnaryOp):
        inner = _compile_node(node.operand, n)
        if isinstance(node.op, ast.USub):
            return lambda pts: -inner(pts)
        if isinstance(node.op, ast.UAdd):
            return inner
        raise ConfigurationError("unsupported unary op")
    if isinstance(node, ast.BinOp):
        left = _compile_node(node.left, n)
        right = _compile_node(node.right, n)
        if isinstance(node.op, ast.Add):
            return lambda pts: left(pts) + right(pts)
        if isinstance(node.op, ast.Sub):
            return lambda pts: left(pts) - right(pts)
        if isinstance(node.op, ast.Mult):
            return lambda pts: left(pts) * right(pts)
        raise ConfigurationError("only +, - and * are allowed")
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            raise ConfigurationError("only re/im/abs/log/max calls allowed")
        if node.keywords:
            raise ConfigurationError("keyword arguments not allowed")
        fn = _FUNCS[node.func.id]
        args = [_compile_node(a, n) for a in node.args]
        if node.func.id == "max":
            if len(args) != 2:
                raise ConfigurationError("max takes exactly two arguments")
            return lambda pts: fn(args[0](pts), args[1](pts))
        if len(args) != 1:
            raise ConfigurationError(f"{node.func.id} takes one argument")
        return lambda pts: fn(args[0](pts))
    raise ConfigurationError(f"unsupported syntax {type(node).__name__}")


def compile_expression(text, n, path="expression"):
    """Compile an expression string into a vectorised points -> real
    function; an error message starts with ``path``, the expression's
    config key."""
    try:
        tree = ast.parse(text, mode="eval")
        if _depth(tree) > _MAX_DEPTH:
            raise ConfigurationError(f"nested deeper than {_MAX_DEPTH} levels")
        fn = _compile_node(tree, n)
    except (ConfigurationError, SyntaxError, ValueError,
            RecursionError) as exc:
        # Python 3.10 raises ValueError for a null byte in the source
        raise ConfigurationError(f"{path}: {exc}") from exc

    def evaluate(pts):
        pts = np.asarray(pts, dtype=complex)
        out = np.real(fn(pts))
        # a constant expression gives one scalar: spread it over the points
        return np.full(pts.shape[:-1], out) if np.ndim(out) == 0 else out

    return evaluate


def obstacle_from_expression(text, n, rotation_invariant_last=False,
                             path="obstacle expression"):
    return Obstacle(compile_expression(text, n, path), description=text,
                    rotation_invariant_last=rotation_invariant_last)
