"""Differential tests: AdScript bytecode VM vs the tree-walking interpreter.

The VM's contract is bit-for-bit observable equivalence (DESIGN §13):

* identical results and error messages on a corpus of tricky scripts
  (closures, try/finally ordering, switch fallthrough, eval control leaks,
  sloppy globals, member double-evaluation, ...);
* identical side-effect *traces* at every step budget — sweeping the budget
  from 1 upward proves :class:`BudgetExceededError` fires at the same
  side-effect boundary on both engines, and identical final step counters
  prove tick-exact accounting on successful runs;
* bit-identical corpus and verdict fingerprints over the full streamed
  crawl+scan pipeline, serial and at 4 workers in thread and fork modes,
  with ``REPRO_ADSCRIPT_VM`` flipping engines and no call-site changes.
"""

import os

import pytest

from repro.adscript.bytecode import (
    _function_layout,
    compile_source,
    disassemble,
)
from repro.adscript.errors import (
    AdScriptError,
    BudgetExceededError,
    ScriptRuntimeError,
    ThrowSignal,
)
from repro.adscript.interpreter import Environment, Interpreter
from repro.adscript.parser import parse_program
from repro.adscript.values import NativeFunction, UNDEFINED, to_js_string
from repro.core.persistence import corpus_fingerprint, verdict_fingerprint
from repro.core.study import Study, StudyConfig
from repro.crawler.parallel import fork_available
from repro.datasets.world import WorldParams
from repro.service import ScanService, ServiceConfig, stream_crawl
from repro.util.lru import all_caches, clear_all_caches

ENGINES = ("tree", "bytecode")


# -- engine harness -----------------------------------------------------------


def run_engine(engine, source, budget=500_000):
    """Run ``source`` on one engine; returns (outcome, trace, steps).

    ``trace`` records every ``probe(...)`` call the script makes (arguments
    stringified), i.e. the script's observable side-effect sequence.
    """
    trace = []

    def _probe(*args):
        trace.append(tuple(to_js_string(a) for a in args))
        return UNDEFINED

    interp = Interpreter(step_budget=budget, engine=engine)
    interp.define_global("probe", NativeFunction("probe", _probe))
    try:
        result = interp.run(source)
        outcome = ("ok", to_js_string(result))
    except BudgetExceededError as exc:
        outcome = ("budget", str(exc))
    except ThrowSignal as exc:
        outcome = ("throw", to_js_string(exc.value))
    except ScriptRuntimeError as exc:
        outcome = ("error", str(exc))
    except AdScriptError as exc:  # parse errors etc. must also match
        outcome = (type(exc).__name__, str(exc))
    return outcome, trace, interp.steps


def sweep_budgets(steps):
    """Budget sample: dense at the start, then strided, then the endgame."""
    budgets = set(range(1, min(steps, 60) + 1))
    budgets.update(range(60, steps, 7))
    budgets.update((max(1, steps - 1), steps, steps + 1))
    return sorted(budgets)


def assert_parity(source):
    tree = run_engine("tree", source)
    vm = run_engine("bytecode", source)
    assert vm[0] == tree[0], f"outcome diverged on:\n{source}"
    assert vm[1] == tree[1], f"trace diverged on:\n{source}"
    assert vm[2] == tree[2], f"step count diverged on:\n{source}"
    # Budget sweep: at every budget the engines must exhaust at the same
    # side-effect boundary with the same outcome.
    for budget in sweep_budgets(tree[2]):
        t_out, t_trace, _ = run_engine("tree", source, budget=budget)
        v_out, v_trace, _ = run_engine("bytecode", source, budget=budget)
        assert v_out == t_out, f"outcome diverged at budget {budget} on:\n{source}"
        assert v_trace == t_trace, (
            f"trace diverged at budget {budget} on:\n{source}"
        )


PARITY_SCRIPTS = {
    "busy_while": "var i=0; while(i<30){i++; probe(i);} probe('done');",
    "do_while_continue": (
        "var i=0; do { i++; if(i%2){continue;} probe(i); } while(i<10);"
        " probe('x');"
    ),
    "for_break_continue": (
        "var s=0; for(var i=0;i<10;i++){ if(i==4) continue;"
        " if(i==8) break; s+=i; } probe(s);"
    ),
    "nested_loops": (
        "var c=0; for(var i=0;i<4;i++){ for(var j=0;j<4;j++){"
        " if(j==2) break; if(i==2) continue; c++; } } probe(c);"
    ),
    "forin_object": "var o={a:1,b:2,c:3}; var k; for(k in o){probe(k, o[k]);}",
    "forin_array_break": (
        "var a=[10,20,30,40]; for(var k in a){ if(k=='2') break; probe(k); }"
        " probe('after');"
    ),
    "forin_string": "var s=''; for(var i in 'abc'){s+=i;} probe(s);",
    "forin_undeclared_var": "for(q in {x:1}){probe(q);} probe(typeof q);",
    "switch_fallthrough": (
        "function sw(v){ var out=''; switch(v){ case 1: out+='a';"
        " case 2: out+='b'; break; case 3: out+='c'; default: out+='d'; }"
        " return out; } probe(sw(1), sw(2), sw(3), sw(9));"
    ),
    "switch_default_middle": (
        "function sm(v){ var out=''; switch(v){ case 'x': out+='1';"
        " default: out+='2'; case 'y': out+='3'; } return out; }"
        " probe(sm('x'), sm('y'), sm('?'));"
    ),
    "switch_continue_in_loop": (
        "for(var i=0;i<5;i++){ switch(i){ case 1: probe('one'); continue;"
        " case 3: probe('three'); break; default: probe('d', i); }"
        " probe('tail', i); }"
    ),
    "try_catch_finally": (
        "try { probe('t'); throw 'boom'; } catch(e){ probe('c', e); }"
        " finally { probe('f'); } probe('after');"
    ),
    "try_finally_swallows_throw": (
        "try { probe('t'); throw 'x'; probe('never'); } finally {"
        " probe('f'); } probe('after');"
    ),
    "try_catch_error_object": (
        "try { nope(); } catch(e) { probe(e.name, e.message); }"
    ),
    "try_break_through_finally": (
        "var i=0; while(true){ i++; try { if(i==3) break; } finally {"
        " probe('f', i); } } probe(i);"
    ),
    "try_return_through_finally": (
        "function f(){ try { return 1; } finally { probe('fin'); } }"
        " probe(f());"
    ),
    "catch_shadows_slot_var": (
        "function g(a){ var b=2; try { throw a; } catch(b) { probe(b); }"
        " probe(b); return a+b; } probe(g(1));"
    ),
    "catch_scoped_var_vanishes": (
        "try { throw 'v'; } catch(c) { var y='iny'; probe(c, y); }"
        " probe(typeof y);"
    ),
    "no_var_hoisting": (
        "w=5; function h(){ probe(w); var w=6; probe(w); } h(); probe(w);"
    ),
    "read_before_decl_errors": (
        "function h(){ probe(m); var m=1; } try { h(); } catch(e) {"
        " probe(e.message); }"
    ),
    "sloppy_global_from_function": (
        "function s(){ undeclared1 = 7; } s(); probe(undeclared1);"
    ),
    "closures": (
        "function mk(n){ return function(x){ return n + x; }; }"
        " var add2 = mk(2); probe(add2(5)); probe(mk(10)(1));"
    ),
    "named_funcexpr_recursion": (
        "var fact = function F(n){ return n<2 ? 1 : n*F(n-1); };"
        " probe(fact(5)); probe(typeof F);"
    ),
    "arguments_object": (
        "function a(){ return arguments.length + ':' + arguments[0]; }"
        " probe(a(9,8,7)); probe(a());"
    ),
    "recursion": (
        "function r(n){ if(n<=0) return 0; return r(n-1)+1; } probe(r(40));"
    ),
    "new_constructor": (
        "function P(n){ this.n = n; this.twice = n*2; } var p = new P(21);"
        " probe(p.n, p.twice);"
    ),
    "method_this": (
        "var obj = {v: 5}; obj.get = function(){ return this.v; };"
        " probe(obj.get()); probe(typeof this);"
    ),
    "update_member_double_eval": (
        "var o = {x: 1}; function pick(){ probe('pick'); return o; }"
        " pick().x++; probe(o.x); pick().x += 5; probe(o.x);"
    ),
    "compound_computed_member": (
        "var o={a:1}; function key(){ probe('key'); return 'a'; }"
        " o[key()] += 2; probe(o.a); o[key()]--; probe(o.a);"
    ),
    "logical_shortcircuit": (
        "probe(0 && probe('no')); probe(1 || probe('no2'));"
        " probe(null || 'dflt'); probe('' && 'x');"
    ),
    "comma_and_conditional": (
        "var c = (probe('l'), probe('r'), 3); probe(c ? 'yes' : 'no');"
        " probe(0 ? probe('dead') : 'alt');"
    ),
    "typeof_family": (
        "probe(typeof nothere); var d; probe(typeof d); probe(typeof probe);"
        " probe(typeof 'x', typeof 1, typeof null, typeof {});"
    ),
    "delete_ops": (
        "var o={k:1}; probe(delete o.k); probe(delete o.missing);"
        " probe(delete 5); probe('k' in o);"
    ),
    "string_array_members": (
        "probe('hello'.length, 'hello'.charAt(1)); probe((3.5).toString());"
        " var arr=[1,2]; arr.push(3); probe(arr.join('-')); probe(arr.length);"
        " arr.length = 1; probe(arr.join());"
    ),
    "eval_basic": (
        "var e1 = eval('1+2'); probe(e1); eval('var ev=9;'); probe(ev);"
    ),
    "eval_break_leaks_to_loop": (
        "var i=0; while(true){ i++; if(i>2){ eval('break'); } probe(i); }"
        " probe('out', i);"
    ),
    "eval_continue_leaks_to_loop": (
        "var i=0; var n=0; while(i<4){ i++; if(i==2){ eval('continue'); }"
        " n++; } probe(i, n);"
    ),
    "eval_runs_in_global_scope": (
        "function ef(){ var loc=1; try { eval('probe(loc);'); } catch(e){"
        " probe('err', e.message); } } ef();"
    ),
    "illegal_break": "probe('pre'); break;",
    "illegal_continue_in_function": (
        "function ic(){ continue; } try{ ic(); } catch(e){ probe(e.message); }"
    ),
    "return_at_toplevel": "probe('pre'); return;",
    "uncaught_throw": "probe('pre'); throw 'up';",
    "number_edge_cases": (
        "probe(0/0 == 0/0, 0/0 < 1, 1/0, -1/0, 5%0, 5/0, -5/0);"
    ),
    "bitwise": (
        "probe(5 & 3, 5 | 3, 5 ^ 3, ~5, 1 << 31, -8 >> 2, -8 >>> 2);"
    ),
    "in_operator": (
        "var a=[1,2]; probe('0' in a, '5' in a, 'x' in {});"
    ),
    "string_compare_and_concat": (
        "probe('a' < 'b', 'b' <= 'a', 'z' > 'y'); probe('v=' + {});"
        " probe([1,2] + '!'); probe('3' + 4, '3' - 1);"
    ),
    "member_error_messages": (
        "var u; try { u.x; } catch(e){ probe(e.message); }"
        " try { null.y = 1; } catch(e){ probe(e.message); }"
    ),
    "not_a_function_messages": (
        "try { var nf=5; nf(); } catch(e){ probe(e.message); }"
        " var o={}; try { o.missing(); } catch(e){ probe(e.message); }"
        " var n=5; try { new n(); } catch(e){ probe(e.message); }"
    ),
    "empty_statements": ";;; var z=1;;; probe(z);;",
    "do_while_break_inside_forin": (
        "var a=['p','q','r']; var out=''; for(var k in a){ do {"
        " if(a[k]=='q') break; out+=a[k]; } while(false); } probe(out);"
    ),
    "update_identifier_forms": (
        "var i=5; probe(i++, i, ++i, i--, --i, i); var u2; probe(u2++, u2);"
    ),
}


@pytest.mark.parametrize("name", sorted(PARITY_SCRIPTS))
def test_engine_parity(name):
    assert_parity(PARITY_SCRIPTS[name])


# -- targeted semantics -------------------------------------------------------


class TestBudgetExhaustion:
    def test_busy_loop_exhausts_identically(self):
        source = "var i=0; while(true){ i = i + 1; }"
        for budget in (1, 2, 3, 10, 97, 1000):
            tree = run_engine("tree", source, budget=budget)
            vm = run_engine("bytecode", source, budget=budget)
            assert tree[0][0] == "budget"
            assert vm[0] == tree[0]

    def test_budget_error_message_carries_budget(self):
        out, _, _ = run_engine("bytecode", "while(true){}", budget=123)
        assert out == ("budget", "exceeded 123 execution steps")

    def test_steps_accumulate_across_runs(self):
        # Browsers reuse one interpreter per frame across scripts, so the
        # counter must accumulate identically on both engines.
        totals = {}
        for engine in ENGINES:
            interp = Interpreter(step_budget=10_000, engine=engine)
            interp.run("var a = 1 + 2;")
            interp.run("var b = a * 3; b;")
            totals[engine] = interp.steps
        assert totals["tree"] == totals["bytecode"]

    def test_finally_under_exhausted_budget(self):
        # The finally block itself charges ticks, so once the budget is
        # blown its probe cannot run; both engines must agree on that.
        source = "try { while(true){} } finally { probe('fin'); }"
        tree = run_engine("tree", source, budget=50)
        vm = run_engine("bytecode", source, budget=50)
        assert tree[0][0] == "budget"
        assert vm[0] == tree[0] and vm[1] == tree[1] == []


class TestThrowOrdering:
    def test_throw_in_catch_then_finally(self):
        assert_parity(
            "try { try { throw 'a'; } catch(e){ probe('c'); throw 'b'; }"
            " finally { probe('f'); } } catch(e2){ probe('outer', e2); }"
        )

    def test_throw_in_finally_replaces_pending(self):
        assert_parity(
            "try { try { throw 'orig'; } finally { probe('f'); throw 'repl'; }"
            " } catch(e){ probe(e); }"
        )

    def test_runtime_error_to_error_object(self):
        assert_parity(
            "try { missing_fn(); } catch(e){ probe(typeof e, e.name,"
            " e.message); }"
        )


class TestSloppyGlobals:
    def test_assign_creates_in_root(self):
        for engine in ENGINES:
            interp = Interpreter(engine=engine)
            interp.run("function deep(){ function deeper(){ gx = 42; }"
                       " deeper(); } deep();")
            assert interp.globals.lookup("gx") == 42.0

    def test_environment_root_resolved_once(self):
        root = Environment()
        mid = Environment(root)
        leaf = Environment(mid)
        assert leaf.root is root and mid.root is root and root.root is root
        leaf.assign("fresh", 1)
        assert root.bindings["fresh"] == 1
        assert "fresh" not in leaf.bindings


class TestEngineRouting:
    def test_env_var_selects_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADSCRIPT_VM", "tree")
        assert Interpreter().engine == "tree"
        monkeypatch.setenv("REPRO_ADSCRIPT_VM", "bytecode")
        assert Interpreter().engine == "bytecode"
        monkeypatch.delenv("REPRO_ADSCRIPT_VM")
        assert Interpreter().engine == "bytecode"  # default

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            Interpreter(engine="jit")

    def test_cross_engine_function_values(self):
        # A function created by the tree engine runs on the VM (compiled on
        # demand) — host callbacks cross engine boundaries in the browser.
        tree = Interpreter(engine="tree")
        tree.run("function double(x){ return x * 2; }")
        fn = tree.globals.lookup("double")
        vm = Interpreter(engine="bytecode")
        assert vm.call_function(fn, [4.0]) == 8.0
        assert fn.code is not None  # cached on the instance


class TestCompilerInternals:
    def test_slot_layout_basics(self):
        program = parse_program(
            "function f(a, b){ var x = 1; var y; return a + x; }")
        fn = program.body[0]
        slot_names, slot_map, param_slots = _function_layout(
            fn.params, fn.body)
        assert slot_names == ("this", "arguments", "a", "b", "x", "y")
        assert param_slots == (2, 3)
        assert slot_map["x"] == 4

    def test_nested_function_forces_dynamic(self):
        program = parse_program(
            "function f(){ var x = 1; var g = function(){ return x; }; }")
        fn = program.body[0]
        assert _function_layout(fn.params, fn.body) is None

    def test_catch_collision_forces_dynamic(self):
        program = parse_program(
            "function f(a){ try { } catch(a) { } }")
        fn = program.body[0]
        assert _function_layout(fn.params, fn.body) is None

    def test_constant_folding_emits_const(self):
        code = compile_source("var x = 1 + 2 * 3;")
        listing = disassemble(code)
        assert "7.0" in listing  # folded to a single constant
        assert "BIN_MUL" not in listing and "BIN_ADD" not in listing

    def test_bytecode_cache_hits_on_reuse(self):
        cache = all_caches()["adscript_bytecode"]
        source = "var cache_probe_xyz = 41 + 1;"
        before = cache.stats()["hits"]
        first = compile_source(source)
        second = compile_source(source)
        assert second is first
        assert cache.stats()["hits"] >= before + 1

    def test_disassembly_lists_functions_and_lines(self):
        code = compile_source(
            "var x = 1;\nfunction add(a, b){ return a + b; }\nadd(x, 2);")
        listing = disassemble(code)
        assert "== program <program>" in listing
        assert "== function add" in listing
        assert "CALL_FUNCTION" in listing
        assert "line=3" in listing
        assert "RETURN_VALUE" in listing


# -- full-pipeline differential: tree vs bytecode -----------------------------


SEED = 11

PARAMS = WorldParams(n_top_sites=5, n_bottom_sites=5, n_other_sites=5,
                     n_feed_sites=2,
                     n_benign_campaigns=8, n_malicious_campaigns=3,
                     variants_per_benign=2, variants_per_malicious=1)

STUDY_CONFIG = StudyConfig(seed=SEED, days=1, refreshes_per_visit=2,
                           world_params=PARAMS)

MODES = ["thread"] + (["process"] if fork_available() else [])


def _run_pipeline_engine(engine, crawl_workers, mode):
    """Full streamed crawl+scan on one engine; (fingerprint, verdicts, stats).

    Engine selection goes through the REPRO_ADSCRIPT_VM environment variable
    only — proving the escape hatch flips every interpreter in the render
    path (browser frames, stdlib eval, oracles) without call-site changes.
    Thread workers read it at Interpreter construction; fork workers inherit
    it through the environment.
    """
    previous = os.environ.get("REPRO_ADSCRIPT_VM")
    os.environ["REPRO_ADSCRIPT_VM"] = engine
    try:
        clear_all_caches()
        study = Study(StudyConfig(**STUDY_CONFIG.__dict__))
        if crawl_workers == 1:
            crawler = study.build_crawler()
        else:
            crawler = study.build_parallel_crawler(workers=crawl_workers,
                                                   mode=mode)
        config = ServiceConfig(seed=SEED, n_workers=2, world_params=PARAMS,
                               batch_max_size=4)
        with ScanService(config) as service:
            corpus, _, tickets = stream_crawl(
                crawler, study.build_schedule(), service)
            service.drain()
            verdicts = {ad_id: verdict_fingerprint(ticket.result(timeout=120))
                        for ad_id, ticket in tickets.items()}
            stats = service.stats()
        return corpus_fingerprint(corpus), verdicts, stats
    finally:
        if previous is None:
            os.environ.pop("REPRO_ADSCRIPT_VM", None)
        else:
            os.environ["REPRO_ADSCRIPT_VM"] = previous
        clear_all_caches()


@pytest.fixture(scope="module")
def tree_serial_baseline():
    fingerprint, verdicts, _ = _run_pipeline_engine("tree", 1, None)
    assert verdicts  # the workload scans something
    return fingerprint, verdicts


class TestPipelineDifferential:
    def test_vm_serial_matches_tree_serial(self, tree_serial_baseline):
        fingerprint, verdicts, stats = _run_pipeline_engine("bytecode", 1, None)
        assert (fingerprint, verdicts) == tree_serial_baseline
        # The differential is meaningless if the VM never actually ran from
        # its compiled cache.
        assert stats["compile_caches"]["adscript_bytecode"]["hits"] > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_vm_four_workers_matches_tree_serial(
            self, tree_serial_baseline, mode):
        fingerprint, verdicts, _ = _run_pipeline_engine("bytecode", 4, mode)
        assert (fingerprint, verdicts) == tree_serial_baseline
