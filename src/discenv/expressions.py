"""A minimal arithmetic grammar for obstacle functions over coordinates.

Supported: numeric constants, + - *, unary minus, and the calls
re(), im(), abs(), log(), max() applied to coordinate names z1..zN.
Anything else is rejected; this is deliberately not a scripting hook.
"""

from __future__ import annotations

import ast
import operator

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

#: Deepest expression accepted, in levels of expression nodes (``z1`` is
#: one, ``-z1`` two).  Compiling recurses once per level; evaluation runs
#: the flat tape in a loop, so depth costs no stack there.
_MAX_DEPTH = 100

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul}


def _depth(tree):
    """Levels of expression nodes, counted without recursion."""
    depth, level = 0, [tree.body]
    while level:
        depth += 1
        level = [c for node in level for c in ast.iter_child_nodes(node)
                 if isinstance(c, ast.expr)]
    return depth


class _Tape:
    """One step per distinct subexpression, operands first, each filling
    its own slot.  Slot 0 holds the points, a constant's slot its value."""

    def __init__(self):
        self.values, self.steps, self.slots = [None], [], {}

    def slot(self, key, step=None, value=None):
        """The slot of the subexpression ``key``: a new slot holds
        ``value``, or is filled by ``step``, (fn, a, b) over slots (b is
        None for one operand)."""
        if key not in self.slots:
            self.slots[key] = len(self.values)
            self.values.append(value)
            if step:
                self.steps.append((*step, self.slots[key]))
        return self.slots[key]

    def program(self):
        """The steps, each with the slots it frees: the intermediates it
        uses last, so each lives as long as under nested calls."""
        last = {}  # intermediate slot -> the step that uses it last
        for k, (_, a, b, _) in enumerate(self.steps):
            for slot in (a, b):
                if slot and self.values[slot] is None:
                    last[slot] = k
        return [(fn, a, b, out,
                 tuple(s for s in dict.fromkeys((a, b)) if last.get(s) == k))
                for k, (fn, a, b, out) in enumerate(self.steps)]


def _compile_node(node, n, tape):
    """The slot of node's value, with a step on the tape for each of its
    subexpressions the tape does not hold yet, operands first."""
    if isinstance(node, ast.Expression):
        return _compile_node(node.body, n, tape)
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float):  # bool is an int subclass
            raise ConfigurationError(f"unsupported constant {node.value!r}")
        try:
            v = float(node.value)
        except OverflowError:
            v = np.inf
        if not np.isfinite(v):  # an int or float literal past the float range
            raise ConfigurationError("constant too large for a float")
        return tape.slot(("const", v), value=v)
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
        getter = operator.itemgetter((..., idx))
        return tape.slot(("z", idx), (getter, 0, None))
    if isinstance(node, ast.UnaryOp):
        inner = _compile_node(node.operand, n, tape)
        if isinstance(node.op, ast.USub):
            step = (operator.neg, inner, None)
            return tape.slot(step, step)
        if isinstance(node.op, ast.UAdd):
            return inner
        raise ConfigurationError("unsupported unary op")
    if isinstance(node, ast.BinOp):
        left = _compile_node(node.left, n, tape)
        right = _compile_node(node.right, n, tape)
        fn = _BINOPS.get(type(node.op))
        if fn is None:
            raise ConfigurationError("only +, - and * are allowed")
        step = (fn, left, right)
        return tape.slot(step, step)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            raise ConfigurationError("only re/im/abs/log/max calls allowed")
        if node.keywords:
            raise ConfigurationError("keyword arguments not allowed")
        fn = _FUNCS[node.func.id]
        args = tuple(_compile_node(a, n, tape) for a in node.args)
        if node.func.id == "max":
            if len(args) != 2:
                raise ConfigurationError("max takes exactly two arguments")
        elif len(args) != 1:
            raise ConfigurationError(f"{node.func.id} takes one argument")
        step = (fn, *args, None)[:3]  # (fn, a, None) or (fn, a, b)
        return tape.slot(step, step)
    raise ConfigurationError(f"unsupported syntax {type(node).__name__}")


def _compile(text, n, path):
    """Compile an expression string into its vectorised points -> real
    function, its tape and its result's slot; an error message starts
    with ``path``, the expression's config key."""
    try:
        tree = ast.parse(text, mode="eval")
        if _depth(tree) > _MAX_DEPTH:
            raise ConfigurationError(f"nested deeper than {_MAX_DEPTH} levels")
        tape = _Tape()
        result = _compile_node(tree, n, tape)
    except (ConfigurationError, SyntaxError, ValueError,
            RecursionError) as exc:
        # Python 3.10 raises ValueError for a null byte in the source
        raise ConfigurationError(f"{path}: {exc}") from exc
    values, program = tape.values, tape.program()

    def evaluate(pts):
        pts = np.asarray(pts, dtype=complex)
        reg = values.copy()
        reg[0] = pts
        for fn, a, b, out, dead in program:
            reg[out] = fn(reg[a]) if b is None else fn(reg[a], reg[b])
            for d in dead:
                reg[d] = None
        out = np.real(reg[result])
        # a constant expression gives one scalar: spread it over the points
        return np.full(pts.shape[:-1], out) if np.ndim(out) == 0 else out

    return evaluate, tape, result


def compile_expression(text, n, path="expression"):
    """The points -> real function of an expression string (``_compile``)."""
    return _compile(text, n, path)[0]


def obstacle_from_expression(text, n, path="obstacle expression"):
    """The obstacle of an expression string, invariant under rotation of
    z_n when z_n enters only through abs(z_n): it is not the result, and
    every step that reads it is abs (sufficient, not necessary)."""
    evaluate, tape, result = _compile(text, n, path)
    zn = tape.slots.get(("z", n - 1))  # None when z_n does not occur
    invariant = zn is None or zn != result and all(
        fn is np.abs for fn, a, b, _ in tape.steps if zn in (a, b))
    return Obstacle(evaluate, text, rotation_invariant_last=invariant)
