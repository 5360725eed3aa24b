"""The compiler half's differential harness: drawn MiniF units, the
interpreter as their oracle, and the four properties of §3 as functions.

:func:`cases` draws a :class:`Case`: the text of one MiniF unit (``do``
and ``do .. where`` loops over 1-D and 2-D arrays and scalars, sum and
product reductions, subscripted subscripts ``x(idx(i))``, loop bodies
with independent halves, calls of the pure intrinsics ``f`` and ``g``,
and scalar reads after a loop, of its own index too) with ``n`` and a
seed for the fill of every declared array.  ``lang/interp.py`` runs
everything; :class:`_Env` and :class:`_Row` log each scalar and element
it reads or writes.  Each property takes a case and what the compiler
made of it:

* :func:`check_descriptors` — every primitive's dynamic reads and
  writes lie inside its descriptor, concretised on its entry state, and
  primitives that do not ``interfere`` touch disjoint locations;
* :func:`check_split_order` — ``C_D ; C_I ; C_M`` and ``C_I ; C_D ;
  C_M`` leave the store ``C`` leaves;
* :func:`check_pipeline` — interleavings of a pipelined loop's stages,
  drawn from those :class:`~repro.split.PipelineResult` allows, leave
  the loop's store;
* :func:`check_graph_order` — topological orders of the emitted graph,
  each applied split's source replaced by its parts, leave
  ``interp.run_unit``'s store.

:func:`check_all` runs the four on one case.  Loop indices are compared
only through what reads them: a loop's index after the loop is seen by
a later read (``t = i``), never by the store comparison.
"""

import copy
import itertools
import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property

from hypothesis import strategies as st

from repro.compiler import compile_unit
from repro.descriptors import interfere
from repro.descriptors.guards import AffinePred, MaskPred
from repro.lang import ast, builtins, parse_unit
from repro.lang.interp import DEFAULT_FUNCTIONS, eval_expr, run_stmts, run_unit
from repro.split import SplitContext, decompose


# -- the oracle's functions ---------------------------------------------------


def _number(value):
    """An argument as a float: an array is the mean of its elements,
    each read by index so the log sees it."""
    if isinstance(value, list):
        items = [_number(value[k]) for k in range(len(value))]
        return sum(items) / len(items)
    return float(value)


def _kernel(weight):
    """A pure stand-in, bounded (products of its values stay finite) and
    flat for large arguments (an ulp a split's reassociation leaves in
    one does not grow)."""
    return lambda *args: 1.0 + weight * math.tanh(
        sum(_number(arg) / (k + 1) for k, arg in enumerate(args))
    )


#: Pure stand-ins for the intrinsics the interpreter does not define.
KERNELS = {
    name: _kernel(0.5 / (rank + 1))
    for rank, name in enumerate(
        ("f", "g", "reconstruct", "backproject", "cloud_physics", "advect",
         "interact", "device_eval")
    )
    if builtins.is_pure(name) and name not in DEFAULT_FUNCTIONS
}


# -- the access log -----------------------------------------------------------


class _Row(list):
    """One row of an array; its element reads and writes go to ``log``
    as ``(mode, (array, i1, .., ik))``, 1-based as in MiniF."""

    def __init__(self, items, log, path):
        super().__init__(items)
        self.log, self.path = log, path

    def __getitem__(self, k):
        value = super().__getitem__(k)
        if not isinstance(value, list):
            self.log.append(("r", self.path + (k + 1,)))
        return value

    def __setitem__(self, k, value):
        self.log.append(("w", self.path + (k + 1,)))
        super().__setitem__(k, value)


class _Env(dict):
    """The interpreter's store; scalar reads and writes go to ``log`` as
    ``(mode, (name,))``.  ``interp`` reaches arrays by ``env.get``, which
    a ``dict`` subclass does not route through ``__getitem__``."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __getitem__(self, name):
        value = super().__getitem__(name)
        if not isinstance(value, list):
            self.log.append(("r", (name,)))
        return value

    def __setitem__(self, name, value):
        if not isinstance(value, list):
            self.log.append(("w", (name,)))
        super().__setitem__(name, value)


def _wrap(value, log, path):
    if isinstance(value, list):
        items = [_wrap(v, log, path + (k + 1,)) for k, v in enumerate(value)]
        return _Row(items, log, path)
    return value


def _unwrap(value):
    if isinstance(value, list):
        return [_unwrap(v) for v in list.__iter__(value)]
    return value


def _logged(stmts, state):
    """Run ``stmts`` on ``state`` (updated in place); return the
    locations read before any write of theirs, and those written."""
    log = []
    env = _Env({name: _wrap(v, log, (name,)) for name, v in state.items()}, log)
    run_stmts(stmts, env, KERNELS)
    state.update({name: _unwrap(v) for name, v in dict.items(env)})
    reads, writes = set(), set()
    for mode, where in log:
        if mode == "w":
            writes.add(where)
        elif where not in writes:
            reads.add(where)
    return reads, writes


# -- cases --------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One MiniF unit, its ``n`` and the seed of its fill."""

    source: str
    n: int = 5
    seed: int = 0

    @cached_property
    def unit(self):
        return parse_unit(self.source)

    def entry(self):
        """The store on entry: ``n``, and every other declared name
        filled from the seed (a ``mask*`` array with 0 / 1, any other
        integer with 1..n, a real with 0.5..1.5)."""
        rng = random.Random(self.seed)
        env = {"n": self.n}
        for decl in self.unit.decls:
            if decl.name in env:
                continue
            if decl.base_type != "integer":
                pick, low, high = rng.uniform, 0.5, 1.5
            elif decl.name.startswith("mask"):
                pick, low, high = rng.randint, 0, 1
            else:
                pick, low, high = rng.randint, 1, self.n
            shape = [int(eval_expr(d.hi, env)) - int(eval_expr(d.lo, env)) + 1
                     for d in decl.dims]
            env[decl.name] = _filled(shape, lambda: pick(low, high))
        return env

    def before(self, index, primitives):
        """The store on entry to primitive ``index``."""
        state = self.entry()
        for primitive in primitives[:index]:
            run_stmts(primitive.stmts, state, KERNELS)
        return state


def _filled(shape, value):
    if not shape:
        return value()
    return [_filled(shape[1:], value) for _ in range(shape[0])]


def _observed(unit):
    """The names a store comparison reads: every declared one but the
    loop indices no statement assigns."""
    indices, assigned = set(), set()
    for node in unit.walk():
        if isinstance(node, ast.DoLoop):
            indices.add(node.var)
        elif isinstance(node, ast.Assign):
            assigned.add(node.target.name)
    return [d.name for d in unit.decls if d.name not in indices - assigned]


def _assert_same(actual, expected, names, where):
    for name in names:
        _close(actual[name], expected[name], f"{where}: {name}")


def _close(actual, expected, where):
    """Equal up to reassociation: a split reduction sums in another
    order."""
    if isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for k, (a, e) in enumerate(zip(actual, expected)):
            _close(a, e, f"{where}({k + 1})")
    else:
        assert math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-9) or (
            math.isnan(actual) and math.isnan(expected)
        ), f"{where} is {actual!r}, the original leaves {expected!r}"


def _allocated(decls, state):
    """``state`` with every declared name it lacks (a split's fresh
    replicas) allocated as ``run_unit`` does."""
    run_unit(ast.Program(name="fresh", decls=list(decls)), state)
    return state


# -- the grammar --------------------------------------------------------------

DECLS = """  integer n, a, i, j, k, col, mask(n), idx(n)
  real s, t, x(n), y(n), z(n), q(n, n), w(n, n)
"""
VECTORS, MATRICES, ACCUMULATORS = ("x", "y", "z"), ("q", "w"), ("s", "t")
INDICES = ("i", "j", "k", "col")


def _subscript(draw, scope):
    """A subscript in 1..n: a loop index, its neighbour or mirror, its
    subscripted subscript, ``a`` or a constant."""
    options = ["a", "1", "n"]
    for var, lo in scope:
        options += [var, var, f"idx({var})", f"n + 1 - {var}"]
        if lo == "2":
            options.append(f"{var} - 1")
    return draw(st.sampled_from(options))


@st.composite
def _expr(draw, scope, depth=2):
    leaves = ["vector", "matrix", "scalar", "const"]
    leaves += ["index"] if scope else []
    kinds = leaves + (["binop", "binop", "f", "g"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "vector":
        return f"{draw(st.sampled_from(VECTORS))}({_subscript(draw, scope)})"
    if kind == "matrix":
        return (f"{draw(st.sampled_from(MATRICES))}({_subscript(draw, scope)}, "
                f"{_subscript(draw, scope)})")
    if kind == "scalar":
        return draw(st.sampled_from(ACCUMULATORS))
    if kind == "const":
        return draw(st.sampled_from(["2", "0.5"]))
    if kind == "index":
        return draw(st.sampled_from([var for var, _lo in scope]))
    left = draw(_expr(scope, depth - 1))
    if kind == "f":
        return f"f({left})"
    right = draw(_expr(scope, depth - 1))
    if kind == "g":
        return f"g({left}, {right})"
    return f"({left} {draw(st.sampled_from(['+', '-', '*']))} {right})"


@st.composite
def _store(draw, scope):
    """An element update or a sum / product reduction step."""
    if draw(st.booleans()):
        acc = draw(st.sampled_from(ACCUMULATORS))
        term = draw(_expr(scope, 1))
        if draw(st.booleans()):
            return [f"{acc} = {acc} + {term}"]
        return [f"{acc} = {acc} * f({term})"]  # a factor near 1
    if draw(st.booleans()):
        target = f"{draw(st.sampled_from(VECTORS))}({_subscript(draw, scope)})"
    else:
        target = (f"{draw(st.sampled_from(MATRICES))}"
                  f"({_subscript(draw, scope)}, {_subscript(draw, scope)})")
    return [f"{target} = {draw(_expr(scope))}"]


@st.composite
def _loop(draw, scope, depth):
    var = draw(st.sampled_from([v for v in INDICES if v not in dict(scope)]))
    lo = draw(st.sampled_from(["1", "1", "2"]))
    hi = draw(st.sampled_from(["n", "n", "n - 1"]))
    where = draw(st.sampled_from(
        ["", "", f" where (mask({var}) <> 0)", f" where (mask({var}) == 0)"]
    ))
    inner = scope + [(var, lo)]
    parts = [_store(inner)] + ([_loop(inner, depth - 1)] if depth else [])
    body = draw(st.lists(st.one_of(parts), min_size=1, max_size=3))
    return ([f"do {var} = {lo}, {hi}{where}"]
            + ["  " + line for stmt in body for line in stmt] + ["end do"])


@st.composite
def _sweep(draw):
    """Figure 1's shape: a column sweep whose first inner loop reads
    what the second writes, so its body splits against the previous
    iteration."""
    where = draw(st.sampled_from(["", " where (mask(col) <> 0)"]))
    matrix = draw(st.sampled_from(MATRICES))
    scope = [("col", "1"), ("i", "1")]
    return [f"do col = 1, n{where}", "  do i = 1, n",
            f"    z(i) = {draw(_expr(scope))}", "  end do", "  do i = 1, n",
            f"    {matrix}(i, col) = z(i) + {draw(_expr(scope, 1))}",
            "  end do", "end do"]


@st.composite
def _figure(draw):
    """Figures 2 and 4's shape: a loop writes a masked column or a point
    row of a matrix, then a nest reads all of it."""
    matrix = draw(st.sampled_from(MATRICES))
    if draw(st.booleans()):
        producer = [f"do col = 1, n where (mask(col) <> 0)", "  do i = 1, n",
                    f"    {matrix}(i, col) = "
                    f"{draw(_expr([('col', '1'), ('i', '1')], 1))}",
                    "  end do", "end do"]
    else:
        producer = ["do i = 1, n",
                    f"  {matrix}(a, i) = {draw(_expr([('i', '1')], 1))}",
                    "end do"]
    scope = [("i", "1"), ("j", "1")]
    if draw(st.booleans()):
        acc = draw(st.sampled_from(ACCUMULATORS))
        use = f"{acc} = {acc} + {matrix}(j, i) * {draw(_expr(scope, 0))}"
    else:
        other = "w" if matrix == "q" else "q"
        use = f"{other}(j, i) = f({matrix}(j, i)) + {draw(_expr(scope, 0))}"
    return producer + ["do i = 1, n", "  do j = 1, n", f"    {use}",
                       "  end do", "end do"]


@st.composite
def _statement(draw):
    kind = draw(st.sampled_from(
        ["loop", "loop", "loop", "sweep", "figure", "reduction", "scalar",
         "index"]
    ))
    if kind == "loop":
        return draw(_loop([], 1))
    if kind == "sweep":
        return draw(_sweep())
    if kind == "figure":
        return draw(_figure())
    acc = draw(st.sampled_from(ACCUMULATORS))
    if kind == "reduction":
        start = draw(st.sampled_from(["0", "1"]))
        return [f"{acc} = {start}"] + draw(_loop([], 1))
    if kind == "index":
        return [f"{acc} = {draw(st.sampled_from(INDICES))}"]
    return [f"{acc} = {draw(_expr([]))}"]


@st.composite
def cases(draw):
    """A drawn :class:`Case`: two to four top-level statements."""
    body = draw(st.lists(_statement(), min_size=2, max_size=4))
    lines = ["program drawn", DECLS.rstrip("\n")]
    lines += ["  " + line for stmt in body for line in stmt] + ["end program"]
    return Case("\n".join(lines) + "\n", draw(st.integers(3, 8)),
                draw(st.integers(0, 2**16)))


def constructs(case, compiled=None):
    """The grammar's constructs this case exercises, and the compiler's
    outcomes if given what it ``compiled``, as ``hypothesis.event``
    labels."""
    found = set()
    for node in case.unit.walk():
        if isinstance(node, ast.DoLoop):
            found.add("where loop" if node.where is not None else "do loop")
        elif isinstance(node, ast.ArrayRef):
            found.add(f"{len(node.indices)}-D array")
            if any(isinstance(i, ast.ArrayRef) for i in node.indices):
                found.add("subscripted subscript")
        elif isinstance(node, ast.Call):
            found.add("call")
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp):
            kind = {"+": "sum", "*": "product"}.get(node.value.op)
            operand = node.value.left
            if kind and isinstance(operand, ast.Var) \
                    and operand.name == node.target.name:
                found.add(f"{kind} reduction")
    for stmt in case.unit.body:
        if isinstance(stmt, ast.DoLoop) and len(stmt.body) > 1:
            found.add("two-part body")
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Var) \
                and stmt.value.name in INDICES:
            found.add("index read after its loop")
    if compiled is not None and any(
        not s.result.is_trivial for s in compiled.splits
    ):
        found.add("non-trivial split")
    if compiled is not None and compiled.pipelines:
        found.add("pipeline_loop succeeded")
    return sorted(found)


# -- property 1: descriptor soundness -----------------------------------------


def _points(rng, state):
    lo, hi = int(rng.lo.evaluate(state)), int(rng.hi.evaluate(state))
    return range(lo, hi + 1, rng.skip or 1)


def _holds(pred, state):
    """A guard predicate on a store; opaque ones may hold."""
    if isinstance(pred, MaskPred):
        index = int(pred.index.evaluate(state))
        values = state[pred.array]
        if not 1 <= index <= len(values):
            return True
        return _compare(values[index - 1], pred.op, pred.value.evaluate(state))
    if isinstance(pred, AffinePred):
        return _compare(pred.expr.evaluate(state), pred.op, 0)
    return True


_COMPARE = {"==": operator.eq, "<>": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _compare(left, op, right):
    return _COMPARE[op](left, right)


def _locations(triple, state):
    """The locations a descriptor triple names on ``state``."""
    if not all(_holds(pred, state) for pred in triple.guard):
        return set()
    block = triple.block
    value = state.get(block)
    if triple.pattern == () or not isinstance(value, list):
        return {(block,)}
    if triple.pattern is None:
        shape = []
        while isinstance(value, list):
            shape.append(range(1, len(value) + 1))
            value = value[0]
        return {(block,) + point for point in itertools.product(*shape)}
    dims = []
    for dim in triple.pattern:
        points = _points(dim.range, state)
        if dim.mask is not None:
            mask, bound = state[dim.mask.array], dim.mask.value.evaluate(state)
            points = [x for x in points if not 1 <= x <= len(mask)
                      or _compare(mask[x - 1], dim.mask.op, bound)]
        dims.append(points)
    return {(block,) + point for point in itertools.product(*dims)}


def _concrete(triples, state):
    return set().union(*(_locations(t, state) for t in triples))


def check_descriptors(case):
    """Descriptor soundness, primitive by primitive in program order
    (Nuriyev's dynamic test); returns the primitives.  A loop's write of
    its own index counts only when a later primitive reads the index
    before writing it."""
    unit = case.unit
    primitives = decompose(unit.body, SplitContext(unit))
    state = case.entry()
    runs = []
    for primitive in primitives:
        entry = copy.deepcopy(state)
        runs.append((primitive, entry) + _logged(primitive.stmts, state))
    indices = {(node.var,) for node in unit.walk()
               if isinstance(node, ast.DoLoop)}
    for at, (primitive, entry, reads, writes) in enumerate(runs):
        writes -= indices - set().union(*(r for _p, _e, r, _w in runs[at + 1:]))
        descriptor = primitive.descriptor
        for kind, dynamic, triples in (("read", reads, descriptor.reads),
                                       ("write", writes, descriptor.writes)):
            outside = dynamic - _concrete(triples, entry)
            assert not outside, (
                f"primitive {primitive.index} {kind}s {sorted(outside)} "
                f"outside its descriptor\n{descriptor}"
            )
        for other, _entry, their_reads, their_writes in runs[:at]:
            if interfere(other.descriptor, descriptor):
                continue
            for mine, theirs in ((writes, their_writes), (writes, their_reads),
                                 (reads, their_writes)):
                shared = mine & theirs
                assert not shared, (
                    f"primitives {other.index} and {primitive.index} do not "
                    f"interfere, yet both touch {sorted(shared)}"
                )
    return primitives


# -- property 2: split order --------------------------------------------------


def check_split_order(case, stmts, result, state=None):
    """``C_D ; C_I ; C_M`` and ``C_I ; C_D ; C_M`` leave the store the
    computation ``stmts`` leaves, from ``state`` (the case's entry
    store by default)."""
    state = case.entry() if state is None else state
    expected = run_stmts(stmts, copy.deepcopy(state), KERNELS)
    for first, second, label in (
        (result.dependent, result.independent, "C_D ; C_I ; C_M"),
        (result.independent, result.dependent, "C_I ; C_D ; C_M"),
    ):
        env = _allocated(result.context.decls, copy.deepcopy(state))
        for piece in (first, second, result.merge):
            run_stmts(piece, env, KERNELS)
        _assert_same(env, expected, _observed(case.unit), label)


# -- property 3: pipelining ---------------------------------------------------


def _iterations(loop, state):
    values = []
    for rng in loop.ranges:
        step = 1 if rng.step is None else int(eval_expr(rng.step, state))
        values += range(int(eval_expr(rng.lo, state)),
                        int(eval_expr(rng.hi, state)) + 1, step)
    return values


def _interleaving(stages, depth, rnd):
    """One order of ``(iteration, stage)`` pairs that the pipeline
    allows: an iteration's A_I and A_D before its A_M; its A_D and A_M
    (or its whole body) after every earlier iteration; its A_I after
    every iteration before the ``depth`` previous ones."""
    left = {k: set(names) for k, names in stages.items()}
    order = []

    def done(k):
        return not left.get(k)

    def ready(k, name):
        if name == "AI":
            return all(done(j) for j in left if j < k - depth)
        if name == "body":
            return all(done(j) for j in left if j < k)
        if not all(done(j) for j in left if j < k):
            return False
        return name == "AD" or not left[k] & {"AI", "AD"}

    while any(left.values()):
        options = sorted((k, name) for k, names in left.items()
                         for name in names if ready(k, name))
        k, name = options[rnd.randrange(len(options))]
        left[k].discard(name)
        order.append((k, name))
    return order


def check_pipeline(case, result, rnd, state=None, interleavings=4):
    """Drawn interleavings of a pipelined loop's stages leave the store
    the loop leaves.  Iterations are counted by index; one its
    ``where`` masks out is empty, the first ``depth`` run the body.
    Each iteration has its own copy of the privatised blocks; the last
    non-empty one's is the store's."""
    loop = result.loop
    state = case.entry() if state is None else state
    expected = run_stmts([loop], copy.deepcopy(state), KERNELS)
    values = _iterations(loop, state)
    pieces = {"AI": result.independent, "AD": result.dependent,
              "AM": result.merge, "body": loop.body}
    stages = {}
    for k, value in enumerate(values):
        bound = dict(state, **{loop.var: value})
        if loop.where is None or eval_expr(loop.where, bound, KERNELS):
            stages[k] = ["body"] if k < result.depth else [
                name for name in ("AI", "AD", "AM") if pieces[name]]
    for _ in range(interleavings):
        env = _allocated(result.context.decls, copy.deepcopy(state))
        private = {k: {name: copy.deepcopy(env[name])
                       for name in result.privatized} for k in stages}
        order = _interleaving(stages, result.depth, rnd)
        for k, name in order:
            env.update(private[k])
            env[loop.var] = values[k]
            run_stmts(pieces[name], env, KERNELS)
            private[k] = {name: env[name] for name in result.privatized}
        if stages:
            env.update(private[max(stages)])
        _assert_same(env, expected, _observed(case.unit),
                     f"pipelined loop {loop.var}, order {order}")


# -- property 4: graph order --------------------------------------------------


def _scheduled(compiled):
    """The graph's nodes and edges, less each applied split's source
    node (its parts replace it and carry its edges) and the pipeline
    stage nodes."""
    graph = compiled.graph
    sources = {f"op{applied.source_index}" for applied in compiled.splits}
    nodes = {node.id for node in graph.nodes
             if node.pipeline_role is None and node.name not in sources}
    edges = {(e.producer, e.consumer) for e in graph.edges
             if e.producer in nodes and e.consumer in nodes}
    return sorted(nodes), edges


def _orders(nodes, edges, rnd, limit):
    """Every topological order if there are at most ``limit``, else
    ``limit`` drawn ones (the first always the latest-ready-first)."""
    preds = {v: {u for u, w in edges if w == v} for v in nodes}

    def extensions(done):
        free = [v for v in nodes if v not in done and preds[v] <= done]
        if not free:
            yield []
        for v in free:
            for rest in extensions(done | {v}):
                yield [v] + rest

    every = list(itertools.islice(extensions(frozenset()), limit + 1))
    if len(every) <= limit:
        return every
    orders = []
    for attempt in range(limit):
        order, done = [], set()
        while len(order) < len(nodes):
            free = [v for v in nodes if v not in done and preds[v] <= done]
            v = free[-1] if attempt == 0 else free[rnd.randrange(len(free))]
            order.append(v)
            done.add(v)
        orders.append(order)
    return orders


def check_graph_order(case, compiled, rnd, limit=16):
    """Topological orders of the emitted graph leave ``run_unit``'s
    store (pipeline stages are :func:`check_pipeline`'s)."""
    entry = case.entry()
    expected = run_unit(case.unit, copy.deepcopy(entry), KERNELS)
    nodes, edges = _scheduled(compiled)
    decls = list(compiled.unit.decls)
    for applied in compiled.splits:
        decls += applied.result.context.decls
    for order in _orders(nodes, edges, rnd, limit):
        env = _allocated(decls, copy.deepcopy(entry))
        for node_id in order:
            run_stmts(compiled.graph.nodes[node_id].stmts, env, KERNELS)
        names = [compiled.graph.nodes[v].name for v in order]
        _assert_same(env, expected, _observed(case.unit), f"order {names}")


def check_all(case, rnd):
    """The four properties on one case; returns its compiled program."""
    primitives = check_descriptors(case)
    compiled = compile_unit(case.unit)
    for applied in compiled.splits:
        index = applied.source_index
        check_split_order(case, primitives[index].stmts, applied.result,
                          case.before(index, primitives))
    for applied in compiled.pipelines:
        check_pipeline(case, applied.result, rnd,
                       case.before(applied.loop_index, primitives))
    check_graph_order(case, compiled, rnd)
    return compiled
