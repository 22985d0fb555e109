"""AdScript tree-walking interpreter.

Executes parsed programs under an execution-step budget (real malvertising
code contains busy loops and anti-analysis stalls; the honeyclient must not
hang on them).  Host integration happens in two places: the global
environment is pre-populated by the embedder (the emulated browser), and
:class:`repro.adscript.values.HostObject` members route property traffic
back to the embedder.
"""

from __future__ import annotations

import math
import os
from typing import Any, Optional

from repro.adscript import ast_nodes as ast
from repro.adscript.errors import (
    BudgetExceededError,
    ScriptRuntimeError,
    ThrowSignal,
)
from repro.adscript.parser import compile_program
from repro.adscript.values import (
    HostObject,
    JSArray,
    JSFunction,
    JSObject,
    NativeFunction,
    UNDEFINED,
    format_number,
    js_equals,
    js_strict_equals,
    js_truthy,
    js_typeof,
    to_js_number,
    to_js_string,
)

DEFAULT_STEP_BUDGET = 500_000


class Environment:
    """A lexical scope."""

    __slots__ = ("bindings", "parent", "root")

    def __init__(self, parent: Optional["Environment"] = None) -> None:
        self.bindings: dict[str, Any] = {}
        self.parent = parent
        # Resolve the root scope once at construction: the sloppy-global
        # assignment path below is hot (ad scripts write undeclared names in
        # loops) and must not re-walk the chain per write.
        self.root: Environment = self if parent is None else parent.root

    def lookup(self, name: str) -> Any:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        raise ScriptRuntimeError(f"{name} is not defined")

    def has(self, name: str) -> bool:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                return True
            env = env.parent
        return False

    def declare(self, name: str, value: Any = UNDEFINED) -> None:
        self.bindings[name] = value

    def assign(self, name: str, value: Any) -> None:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                env.bindings[name] = value
                return
            env = env.parent
        # Undeclared assignment creates a global, as in sloppy-mode JS.
        self.root.bindings[name] = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        super().__init__()
        self.value = value


class Interpreter:
    """Evaluates AdScript programs.

    Parameters
    ----------
    step_budget:
        Maximum number of AST-node evaluations before the run is aborted
        with :class:`BudgetExceededError`.
    """

    def __init__(
        self,
        step_budget: int = DEFAULT_STEP_BUDGET,
        engine: Optional[str] = None,
    ) -> None:
        if engine is None:
            engine = os.environ.get("REPRO_ADSCRIPT_VM", "bytecode")
        if engine not in ("tree", "bytecode"):
            raise ValueError(
                f"unknown AdScript engine {engine!r} (expected 'tree' or 'bytecode')"
            )
        self.engine = engine
        self.globals = Environment()
        self.step_budget = step_budget
        self.steps = 0
        self._install_builtins()

    # -- public API ------------------------------------------------------------

    def run(self, source: str) -> Any:
        """Parse and execute ``source`` in the global scope.

        Returns the value of the last expression statement, mirroring how an
        eval-style embedding reports results.

        Compilation goes through a process-wide, sha256-keyed cache: on the
        bytecode engine every browser context that executes the same script
        source shares one ``CodeObject`` (``adscript_bytecode``), so warm
        renders skip both parse and compile; the tree engine shares one
        frozen AST (``adscript_programs``).
        """
        if self.engine == "bytecode":
            from repro.adscript.bytecode import compile_source

            return self._run_code(compile_source(source))
        program = compile_program(source)
        return self.run_program(program)

    def run_program(self, program: ast.Program) -> Any:
        if self.engine == "bytecode":
            from repro.adscript.bytecode import compile_ast

            return self._run_code(compile_ast(program))
        self._hoist(program.body, self.globals)
        result: Any = UNDEFINED
        try:
            for statement in program.body:
                value = self.execute(statement, self.globals)
                if isinstance(statement, ast.ExpressionStatement):
                    result = value
        except (_Break, _Continue) as exc:
            # 'break'/'continue' outside a loop is a syntax error in JS;
            # surface it as a contained script error, not a control leak.
            raise ScriptRuntimeError(
                f"illegal {type(exc).__name__.lstrip('_').lower()} statement"
            ) from exc
        except _Return as exc:
            raise ScriptRuntimeError("return outside function") from exc
        return result

    def _run_code(self, code: Any) -> Any:
        from repro.adscript.vm import run_code

        try:
            return run_code(self, code, self.globals)
        except (_Break, _Continue) as exc:
            raise ScriptRuntimeError(
                f"illegal {type(exc).__name__.lstrip('_').lower()} statement"
            ) from exc
        except _Return as exc:
            raise ScriptRuntimeError("return outside function") from exc

    def eval_source(self, source: str) -> Any:
        """Execute ``source`` in the global scope on behalf of script ``eval``.

        Unlike :meth:`run`, loop-control leaks (``eval('break')`` inside a
        loop) propagate to the surrounding script exactly as the tree-walker
        lets them, instead of being converted to script errors here.
        """
        if self.engine == "bytecode":
            from repro.adscript.bytecode import compile_source
            from repro.adscript.vm import run_code

            return run_code(self, compile_source(source), self.globals)
        program = compile_program(source)
        self._hoist(program.body, self.globals)
        result: Any = UNDEFINED
        for statement in program.body:
            value = self.execute(statement, self.globals)
            if isinstance(statement, ast.ExpressionStatement):
                result = value
        return result

    def call_function(self, fn: Any, args: list[Any], this: Any = UNDEFINED) -> Any:
        """Invoke a script or native function from host code."""
        if self.engine == "bytecode":
            from repro.adscript.vm import call_value

            return call_value(self, fn, args, this)
        return self._call(fn, args, this)

    def define_global(self, name: str, value: Any) -> None:
        self.globals.declare(name, value)

    # -- statements --------------------------------------------------------------

    def execute(self, node: ast.Node, env: Environment) -> Any:
        self._tick()
        method = getattr(self, f"_exec_{type(node).__name__}", None)
        if method is None:
            return self.evaluate(node, env)
        return method(node, env)

    def _exec_ExpressionStatement(self, node: ast.ExpressionStatement, env: Environment) -> Any:
        return self.evaluate(node.expression, env)

    def _exec_EmptyStatement(self, node: ast.EmptyStatement, env: Environment) -> Any:
        return UNDEFINED

    def _exec_VarDeclaration(self, node: ast.VarDeclaration, env: Environment) -> Any:
        for name, init in node.declarations:
            value = self.evaluate(init, env) if init is not None else UNDEFINED
            env.declare(name, value)
        return UNDEFINED

    def _exec_Block(self, node: ast.Block, env: Environment) -> Any:
        # 'var' has function scope in JS, so blocks share the enclosing scope.
        for statement in node.body:
            self.execute(statement, env)
        return UNDEFINED

    def _exec_IfStatement(self, node: ast.IfStatement, env: Environment) -> Any:
        if js_truthy(self.evaluate(node.test, env)):
            self.execute(node.consequent, env)
        elif node.alternate is not None:
            self.execute(node.alternate, env)
        return UNDEFINED

    def _exec_WhileStatement(self, node: ast.WhileStatement, env: Environment) -> Any:
        while js_truthy(self.evaluate(node.test, env)):
            try:
                self.execute(node.body, env)
            except _Break:
                break
            except _Continue:
                continue
        return UNDEFINED

    def _exec_DoWhileStatement(self, node: ast.DoWhileStatement, env: Environment) -> Any:
        while True:
            try:
                self.execute(node.body, env)
            except _Break:
                break
            except _Continue:
                pass
            if not js_truthy(self.evaluate(node.test, env)):
                break
        return UNDEFINED

    def _exec_SwitchStatement(self, node: ast.SwitchStatement, env: Environment) -> Any:
        value = self.evaluate(node.discriminant, env)
        matched = False
        try:
            # First pass: 'case' clauses, with fallthrough once matched.
            for case in node.cases:
                if not matched and case.test is not None:
                    matched = js_strict_equals(value, self.evaluate(case.test, env))
                if matched:
                    for statement in case.body:
                        self.execute(statement, env)
            if not matched:
                # Second pass: run from 'default:' onward (with fallthrough).
                from_default = False
                for case in node.cases:
                    if case.test is None:
                        from_default = True
                    if from_default:
                        for statement in case.body:
                            self.execute(statement, env)
        except _Break:
            pass
        return UNDEFINED

    def _exec_ForStatement(self, node: ast.ForStatement, env: Environment) -> Any:
        if node.init is not None:
            self.execute(node.init, env)
        while node.test is None or js_truthy(self.evaluate(node.test, env)):
            try:
                self.execute(node.body, env)
            except _Break:
                break
            except _Continue:
                pass
            if node.update is not None:
                self.evaluate(node.update, env)
        return UNDEFINED

    def _exec_ForInStatement(self, node: ast.ForInStatement, env: Environment) -> Any:
        obj = self.evaluate(node.obj, env)
        if isinstance(obj, JSArray):
            keys = [format_number(float(i)) for i in range(len(obj.elements))]
        elif isinstance(obj, JSObject):
            keys = obj.keys()
        elif isinstance(obj, HostObject):
            keys = obj.member_names()
        elif isinstance(obj, str):
            keys = [format_number(float(i)) for i in range(len(obj))]
        else:
            keys = []
        if not env.has(node.var_name):
            env.declare(node.var_name)
        for key in keys:
            env.assign(node.var_name, key)
            try:
                self.execute(node.body, env)
            except _Break:
                break
            except _Continue:
                continue
        return UNDEFINED

    def _exec_ReturnStatement(self, node: ast.ReturnStatement, env: Environment) -> Any:
        value = self.evaluate(node.argument, env) if node.argument is not None else UNDEFINED
        raise _Return(value)

    def _exec_BreakStatement(self, node: ast.BreakStatement, env: Environment) -> Any:
        raise _Break()

    def _exec_ContinueStatement(self, node: ast.ContinueStatement, env: Environment) -> Any:
        raise _Continue()

    def _exec_ThrowStatement(self, node: ast.ThrowStatement, env: Environment) -> Any:
        raise ThrowSignal(self.evaluate(node.argument, env))

    def _exec_TryStatement(self, node: ast.TryStatement, env: Environment) -> Any:
        try:
            self.execute(node.block, env)
        except ThrowSignal as signal:
            if node.catch_block is not None:
                catch_env = Environment(env)
                catch_env.declare(node.catch_param or "e", signal.value)
                self.execute(node.catch_block, catch_env)
        except ScriptRuntimeError as exc:
            if node.catch_block is not None:
                catch_env = Environment(env)
                error_obj = JSObject({"message": str(exc), "name": "Error"})
                catch_env.declare(node.catch_param or "e", error_obj)
                self.execute(node.catch_block, catch_env)
        finally:
            if node.finally_block is not None:
                self.execute(node.finally_block, env)
        return UNDEFINED

    def _exec_FunctionDeclaration(self, node: ast.FunctionDeclaration, env: Environment) -> Any:
        # Already hoisted; re-executing is a no-op but keeps semantics simple.
        env.declare(node.name, JSFunction(node.name, node.params, node.body, env))
        return UNDEFINED

    # -- expressions -------------------------------------------------------------

    def evaluate(self, node: ast.Node, env: Environment) -> Any:
        self._tick()
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is None:
            raise ScriptRuntimeError(f"cannot evaluate node {type(node).__name__}")
        return method(node, env)

    def _eval_NumberLiteral(self, node: ast.NumberLiteral, env: Environment) -> Any:
        return node.value

    def _eval_StringLiteral(self, node: ast.StringLiteral, env: Environment) -> Any:
        return node.value

    def _eval_BooleanLiteral(self, node: ast.BooleanLiteral, env: Environment) -> Any:
        return node.value

    def _eval_NullLiteral(self, node: ast.NullLiteral, env: Environment) -> Any:
        return None

    def _eval_UndefinedLiteral(self, node: ast.UndefinedLiteral, env: Environment) -> Any:
        return UNDEFINED

    def _eval_ThisExpression(self, node: ast.ThisExpression, env: Environment) -> Any:
        if env.has("this"):
            return env.lookup("this")
        if self.globals.has("window"):
            return self.globals.lookup("window")
        return UNDEFINED

    def _eval_Identifier(self, node: ast.Identifier, env: Environment) -> Any:
        return env.lookup(node.name)

    def _eval_ArrayLiteral(self, node: ast.ArrayLiteral, env: Environment) -> Any:
        return JSArray([self.evaluate(el, env) for el in node.elements])

    def _eval_ObjectLiteral(self, node: ast.ObjectLiteral, env: Environment) -> Any:
        obj = JSObject()
        for key, value_node in node.entries:
            obj.set(key, self.evaluate(value_node, env))
        return obj

    def _eval_FunctionExpression(self, node: ast.FunctionExpression, env: Environment) -> Any:
        fn = JSFunction(node.name, node.params, node.body, env)
        if node.name:
            # Named function expressions can refer to themselves.
            fn_env = Environment(env)
            fn_env.declare(node.name, fn)
            fn.closure = fn_env
        return fn

    def _eval_UnaryOp(self, node: ast.UnaryOp, env: Environment) -> Any:
        if node.op == "typeof":
            if isinstance(node.operand, ast.Identifier) and not env.has(node.operand.name):
                return "undefined"
            return js_typeof(self.evaluate(node.operand, env))
        if node.op == "delete":
            if isinstance(node.operand, ast.Member):
                obj = self.evaluate(node.operand.obj, env)
                prop = self._prop_name(node.operand, env)
                if isinstance(obj, JSObject):
                    return obj.delete(prop)
            return True
        value = self.evaluate(node.operand, env)
        if node.op == "!":
            return not js_truthy(value)
        if node.op == "-":
            return -to_js_number(value)
        if node.op == "+":
            return to_js_number(value)
        if node.op == "~":
            return float(~self._to_int32(value))
        raise ScriptRuntimeError(f"unknown unary operator {node.op}")

    def _eval_UpdateExpression(self, node: ast.UpdateExpression, env: Environment) -> Any:
        old = to_js_number(self._read_target(node.target, env))
        new = old + 1 if node.op == "++" else old - 1
        self._write_target(node.target, new, env)
        return new if node.prefix else old

    def _eval_BinaryOp(self, node: ast.BinaryOp, env: Environment) -> Any:
        if node.op == ",":
            self.evaluate(node.left, env)
            return self.evaluate(node.right, env)
        left = self.evaluate(node.left, env)
        right = self.evaluate(node.right, env)
        return self._binary(node.op, left, right)

    def _eval_LogicalOp(self, node: ast.LogicalOp, env: Environment) -> Any:
        left = self.evaluate(node.left, env)
        if node.op == "&&":
            return self.evaluate(node.right, env) if js_truthy(left) else left
        return left if js_truthy(left) else self.evaluate(node.right, env)

    def _eval_Conditional(self, node: ast.Conditional, env: Environment) -> Any:
        if js_truthy(self.evaluate(node.test, env)):
            return self.evaluate(node.consequent, env)
        return self.evaluate(node.alternate, env)

    def _eval_Assignment(self, node: ast.Assignment, env: Environment) -> Any:
        if node.op == "=":
            value = self.evaluate(node.value, env)
        else:
            current = self._read_target(node.target, env)
            operand = self.evaluate(node.value, env)
            value = self._binary(node.op[:-1], current, operand)
        self._write_target(node.target, value, env)
        return value

    def _eval_Member(self, node: ast.Member, env: Environment) -> Any:
        obj = self.evaluate(node.obj, env)
        prop = self._prop_name(node, env)
        return self._get_member(obj, prop)

    def _eval_Call(self, node: ast.Call, env: Environment) -> Any:
        if isinstance(node.callee, ast.Member):
            this = self.evaluate(node.callee.obj, env)
            prop = self._prop_name(node.callee, env)
            fn = self._get_member(this, prop)
            if fn is UNDEFINED:
                raise ScriptRuntimeError(
                    f"{to_js_string(this)}.{prop} is not a function"
                )
        else:
            this = UNDEFINED
            fn = self.evaluate(node.callee, env)
        args = [self.evaluate(arg, env) for arg in node.args]
        return self._call(fn, args, this)

    def _eval_New(self, node: ast.New, env: Environment) -> Any:
        fn = self.evaluate(node.callee, env)
        args = [self.evaluate(arg, env) for arg in node.args]
        if isinstance(fn, NativeFunction):
            return fn.fn(*args)
        if isinstance(fn, HostObject) and callable(fn):
            return fn(*args)
        if isinstance(fn, JSFunction):
            instance = JSObject()
            self._call(fn, args, instance)
            return instance
        raise ScriptRuntimeError(f"{to_js_string(fn)} is not a constructor")

    # -- helpers -----------------------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.step_budget:
            raise BudgetExceededError(f"exceeded {self.step_budget} execution steps")

    def _hoist(self, body: list[ast.Node], env: Environment) -> None:
        """Hoist function declarations so mutual recursion works."""
        for statement in body:
            if isinstance(statement, ast.FunctionDeclaration):
                env.declare(
                    statement.name,
                    JSFunction(statement.name, statement.params, statement.body, env),
                )

    def _prop_name(self, node: ast.Member, env: Environment) -> str:
        if node.computed:
            return to_js_string(self.evaluate(node.prop, env))
        assert isinstance(node.prop, ast.StringLiteral)
        return node.prop.value

    def _read_target(self, target: ast.Node, env: Environment) -> Any:
        if isinstance(target, ast.Identifier):
            return env.lookup(target.name) if env.has(target.name) else UNDEFINED
        if isinstance(target, ast.Member):
            obj = self.evaluate(target.obj, env)
            return self._get_member(obj, self._prop_name(target, env))
        raise ScriptRuntimeError("invalid assignment target")

    def _write_target(self, target: ast.Node, value: Any, env: Environment) -> None:
        if isinstance(target, ast.Identifier):
            env.assign(target.name, value)
            return
        if isinstance(target, ast.Member):
            obj = self.evaluate(target.obj, env)
            prop = self._prop_name(target, env)
            self._set_member(obj, prop, value)
            return
        raise ScriptRuntimeError("invalid assignment target")

    def _get_member(self, obj: Any, prop: str) -> Any:
        return get_member(self, obj, prop)

    def _set_member(self, obj: Any, prop: str, value: Any) -> None:
        set_member(obj, prop, value)

    def _call(self, fn: Any, args: list[Any], this: Any = UNDEFINED) -> Any:
        self._tick()
        if isinstance(fn, NativeFunction):
            return fn.fn(*args)
        if isinstance(fn, HostObject) and callable(fn):
            return fn(*args)  # callable host constructors (e.g. Date)
        if not isinstance(fn, JSFunction):
            raise ScriptRuntimeError(f"{to_js_string(fn)} is not a function")
        env = Environment(fn.closure)
        env.declare("this", this)
        env.declare("arguments", JSArray(list(args)))
        for i, param in enumerate(fn.params):
            env.declare(param, args[i] if i < len(args) else UNDEFINED)
        self._hoist(fn.body, env)
        try:
            for statement in fn.body:
                self.execute(statement, env)
        except _Return as ret:
            return ret.value
        except (_Break, _Continue) as exc:
            raise ScriptRuntimeError(
                f"illegal {type(exc).__name__.lstrip('_').lower()} statement"
            ) from exc
        return UNDEFINED

    def _to_int32(self, value: Any) -> int:
        return to_int32(value)

    def _binary(self, op: str, left: Any, right: Any) -> Any:
        return binary_op(op, left, right)

    # -- builtins ------------------------------------------------------------------

    def _install_builtins(self) -> None:
        from repro.adscript.stdlib import install_globals

        install_globals(self)


# -- engine-shared runtime helpers ---------------------------------------------
#
# These implement the observable value semantics (operators, member traffic)
# once, so the tree-walker and the bytecode VM cannot drift apart.


def to_int32(value: Any) -> int:
    number = to_js_number(value)
    if math.isnan(number) or math.isinf(number):
        return 0
    n = int(number) & 0xFFFFFFFF
    return n - 0x100000000 if n >= 0x80000000 else n


def binary_op(op: str, left: Any, right: Any) -> Any:
    if op == "+":
        if isinstance(left, str) or isinstance(right, str) or \
           isinstance(left, (JSObject, HostObject)) or isinstance(right, (JSObject, HostObject)):
            return to_js_string(left) + to_js_string(right)
        return to_js_number(left) + to_js_number(right)
    if op == "-":
        return to_js_number(left) - to_js_number(right)
    if op == "*":
        return to_js_number(left) * to_js_number(right)
    if op == "/":
        denominator = to_js_number(right)
        numerator = to_js_number(left)
        if denominator == 0:
            if math.isnan(numerator) or numerator == 0:
                return math.nan
            return math.inf if (numerator > 0) == (denominator >= 0) else -math.inf
        return numerator / denominator
    if op == "%":
        denominator = to_js_number(right)
        numerator = to_js_number(left)
        if denominator == 0 or math.isnan(numerator) or math.isinf(numerator):
            return math.nan
        return math.fmod(numerator, denominator)
    if op == "==":
        return js_equals(left, right)
    if op == "!=":
        return not js_equals(left, right)
    if op == "===":
        return js_strict_equals(left, right)
    if op == "!==":
        return not js_strict_equals(left, right)
    if op in ("<", ">", "<=", ">="):
        if isinstance(left, str) and isinstance(right, str):
            a, b = left, right
        else:
            a, b = to_js_number(left), to_js_number(right)
            if isinstance(a, float) and isinstance(b, float) and (math.isnan(a) or math.isnan(b)):
                return False
        if op == "<":
            return a < b
        if op == ">":
            return a > b
        if op == "<=":
            return a <= b
        return a >= b
    if op == "&":
        return float(to_int32(left) & to_int32(right))
    if op == "|":
        return float(to_int32(left) | to_int32(right))
    if op == "^":
        return float(to_int32(left) ^ to_int32(right))
    if op == "<<":
        return float(to_int32(to_int32(left) << (to_int32(right) & 31)))
    if op == ">>":
        return float(to_int32(left) >> (to_int32(right) & 31))
    if op == ">>>":
        return float((to_int32(left) & 0xFFFFFFFF) >> (to_int32(right) & 31))
    if op == "in":
        name = to_js_string(left)
        if isinstance(right, JSArray):
            try:
                return 0 <= int(name) < len(right.elements)
            except ValueError:
                return name in right.properties
        if isinstance(right, JSObject):
            return name in right.properties
        if isinstance(right, HostObject):
            return name in right.member_names()
        return False
    raise ScriptRuntimeError(f"unknown operator {op}")


def get_member(interp: "Interpreter", obj: Any, prop: str) -> Any:
    from repro.adscript.stdlib import array_member, string_member

    if isinstance(obj, str):
        return string_member(interp, obj, prop)
    if isinstance(obj, JSArray):
        return array_member(interp, obj, prop)
    if isinstance(obj, HostObject):
        return obj.get_member(prop)
    if isinstance(obj, JSObject):
        return obj.get(prop)
    if obj is UNDEFINED or obj is None:
        raise ScriptRuntimeError(
            f"cannot read property {prop!r} of {to_js_string(obj)}"
        )
    if isinstance(obj, float) and prop == "toString":
        return NativeFunction("toString", lambda *a: format_number(obj))
    return UNDEFINED


def set_member(obj: Any, prop: str, value: Any) -> None:
    if isinstance(obj, HostObject):
        obj.set_member(prop, value)
        return
    if isinstance(obj, JSArray):
        if prop == "length":
            length = int(to_js_number(value))
            del obj.elements[length:]
            return
        try:
            index = int(prop)
        except ValueError:
            obj.set(prop, value)
            return
        while len(obj.elements) <= index:
            obj.elements.append(UNDEFINED)
        obj.elements[index] = value
        return
    if isinstance(obj, JSObject):
        obj.set(prop, value)
        return
    if obj is UNDEFINED or obj is None:
        raise ScriptRuntimeError(
            f"cannot set property {prop!r} of {to_js_string(obj)}"
        )
    # Writes to primitives are silently dropped, as in JS.


# Importing the compiler here (after Interpreter and the shared helpers are
# defined) guarantees the `adscript_bytecode` cache registers with the
# process-wide LruCache registry whenever the interpreter module is loaded, so
# service stats and the serve shutdown report see it without extra plumbing.
# (bytecode in turn imports the VM at its own bottom, once its opcode table
# exists, which keeps the import cycle well-ordered from any entry point.)
from repro.adscript import bytecode as _bytecode  # noqa: E402,F401
