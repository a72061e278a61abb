"""The straight-line kernels of one model shape, generated and compiled once.

A shape is (hidden_dim, x_dim, y_dim, lag_set), fixed for a whole run.
``kernel_source`` writes the Python source of five functions for one
shape, with every loop over h, x, y and the lags unrolled into locals:
``project``, the input projection ``U x + b`` (``model.project_inputs``);
``make_node``, the unrolled tree's node that bptt recurses over;
``trrl_sweep``, trrl's backward sweep with that node inlined;
``rtrl_advance``, the step of rtrl's Jacobian recurrence; and
``add_log``, every engine's input-layer gradient pass (``engines``).
``_kernels`` compiles that source once per shape into one bounded cache
and returns the five functions as a ``Kernels`` tuple.
This is the only module that generates or compiles code; the import order
is ``base <- kernels <- model <- engines``.  The kernels take the weights
as slices of the packed vectors of ``model.ModelParams`` (theta: U, each
W_l, b; phi: V, c), cut by their callers for the length of one call.
Every sum keeps the order of the loop it replaces, so the bits are those
of the loop form.
"""

from __future__ import annotations

import collections
import functools
import math

from .base import NumericError


def check_finite_step(vec: list, what: str, step: int) -> None:
    if not all(map(math.isfinite, vec)):
        raise NumericError(f"non-finite {what} at step {step}")


def _names(prefix: str, ids) -> str:
    """A tuple display of the names prefix + id, e.g. ``(q0, q1)``; the
    generated kernels unpack a vector into such locals."""
    items = [f"{prefix}{i}" for i in ids]
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def kernel_source(hidden_dim: int, x_dim: int, y_dim: int, lag_set: tuple) -> str:
    """The straight-line Python source of the kernels for one shape.

    It defines five functions, compiled once per shape by ``_kernels``:

    * ``project(u, b, xs)``, a generator that unpacks theta's U and b slices
      into locals, then for each row of ``xs`` checks its length, unpacks
      it and yields ``[a_0 + b_0, a_1 + b_1, ...]``.  Each accumulator a_r
      starts at 0.0 and adds ``U[r,c] * x_c`` over increasing column c.
    * ``make_node(v, ws, h_steps, y_steps, xs, d_phi)``
      binds one bptt call's weights (phi's V slice, theta's W_l slices),
      trace and input rows as closure locals and returns the unrolled
      tree's node, ``node(t, g) -> (entry, children)``.  The node
      backpropagates the output gradient g of step t: it adds the
      output-layer terms (V, c) to ``d_phi`` and folds g into
      q = (V diag(h'))^T g, h' = h (1 - h).  ``entry`` is step t's
      input-layer log entry: q, the input row ``xs[t - 1]`` and the list
      of feedbacks of the lags that reach inside the window.  One
      ``if t > l:`` block per lag, in lag-set order, appends lag l's
      feedback to that list and ``(t - l, W_l^T q)`` to ``children``; a
      push entry is a column of W_l dotted with q, summed from 0.0 over
      increasing row.  It counts nothing: bptt computes its cost once
      per call from its visit count and deepest visit.
    * ``trrl_sweep(v, ws, h_steps, y_steps, xs, d_phi, g_tau)`` runs trrl's
      walk t = tau..1 as one loop, from g_tau, the loss gradient at step
      tau.  The g's live in a list indexed by step: the first push to a
      step stores its vector and later pushes add into it, in walk order;
      a step no push reaches is skipped.  The node body is the same lines
      as ``make_node``'s, with ``d_phi`` held in locals and written back
      once; lag l's ``if t > l:`` block appends its feedback to the log
      entry's list, makes its push and counts it.  It returns ``(log,
      pushes, peak)``: the log entries in visit order, the number of
      pushes, and the high-water mark of the floats the walk keeps live
      (the logged q's, h per visited node, and the stored g's, y each, a g
      freed after its node).
    * ``rtrl_advance(cs, ring)`` takes the oldest Jacobian (lag max(L))
      off ``ring``, a deque of max(L) Jacobians of y rows where
      ``ring[-l]`` is J(t - l), and returns the new one, sum_l C_l J(t - l).
      ``cs`` holds row k of every C_l, the oldest lag's first, then the
      others in lag-set order.  Row k is one comprehension over the zipped
      rows: per column, ``0.0 + C_maxL[k][0] * J(t - max L)_0[j] + ...``, then
      ``... + C_l[k][m] * J(t - l)_m[j]`` per other lag l and row m.
    * ``add_log(dest, log)`` adds the input-layer terms of a log of such
      entries to the first |theta| entries of ``dest``, a list of at least
      that length (a theta gradient, or an rtrl Jacobian row, whose theta
      part comes first).  It unpacks every theta entry (U, each W_l, b)
      from ``dest[:|theta|]`` into locals once; per log entry, in log
      order, it adds the products of the nonzero inputs, then the
      feedback terms of the lags that reach inside the window (lags
      increase, so the i-th feedback is lag i's, and one block per lag
      reads it if the list is long enough), then the bias terms; it writes
      ``dest[:|theta|]`` back once and leaves the rest of ``dest`` as it
      is.

    A row sum is written ``0.0 + a * b + ...``, which Python adds left to
    right, so each sum keeps the order and the bits of the loop it
    replaces.  ``project`` and ``add_log`` test each input column once
    with ``!= 0.0`` and skip the products of a zero (or -0.0) input;
    ``add_log`` also skips the W_l terms of a lag reaching before the
    window start, whose feedback is the zero vector.  Neither skip changes
    a bit: every sum starts at +0.0, a sum that starts at +0.0 is never
    -0.0 in round-to-nearest, so adding a +0.0 or -0.0 product leaves it
    as it is; and U and q are finite, so a skipped product is never NaN.
    The callers count the dense multiplies all the same.

    Every function's source grows linearly with the lag count: one block
    per lag.

    The text is built from the four validated shape integers alone; no
    weight or input value is ever written into it.  Print it to read it:
    ``print(kernel_source(8, 13, 2, (1, 2, 24)))``.
    """
    h, x, y, lags = hidden_dim, x_dim, y_dim, tuple(lag_set)
    if not all(type(n) is int for n in (h, x, y, *lags)):
        raise TypeError(f"shape must be ints, got {h!r}, {x!r}, {y!r}, {lags!r}")
    if min(h, x, y) < 1 or not lags or lags[0] < 1 or list(lags) != sorted(set(lags)):
        raise ValueError(f"not a valid shape: {h!r}, {x!r}, {y!r}, {lags!r}")
    rows, cols, outs = range(h), range(x), range(y)
    p = len(lags)

    def row_sum(terms) -> str:
        return " + ".join(["0.0", *terms])

    def push_entries(i: int) -> list:
        """The y entries of lag i's push, each a column of W_l dotted with q."""
        return [row_sum(f"w{i}_{r}_{k} * q{r}" for r in rows) for k in outs]

    def node_lines(pad: str, d_phi) -> list:
        """The node body on step t, its g unpacked: the output-layer terms
        added to ``d_phi(i)``, the name of phi entry i, then q folded and
        checked."""
        out = [f"{pad}{_names('h', rows)} = h_steps[t - 1]", f"{pad}{_names('g', outs)} = g"]
        for k in outs:
            out += [f"{pad}{d_phi(k * h + j)} += g{k} * h{j}" for j in rows]
            out.append(f"{pad}{d_phi(y * h + k)} += g{k}")
        out.append(f"{pad}q = (")
        for j in rows:
            vt = row_sum(f"v{k}_{j} * g{k}" for k in outs)
            out.append(f"{pad}    ({vt}) * (h{j} * (1.0 - h{j})),")
        return out + [f"{pad})", f'{pad}check_finite_step(q, "folded gradient", t)']

    v_names = _names("v", (f"{k}_{j}" for k in outs for j in rows))
    w_unpacks = [
        f"    {_names('w', (f'{i}_{r}_{k}' for r in rows for k in outs))} = ws[{i}]"
        for i in range(p)
    ]
    lines = [
        "def project(u, b, xs):",
        f"    {_names('u', (f'{r}_{c}' for r in rows for c in cols))} = u",
        f"    {_names('b', rows)} = b",
        "    for x in xs:",
        f"        if len(x) != {x}:",
        f'            raise ValueError(f"input has length {{len(x)}}, expected {x}")',
        f"        {_names('x', cols)} = x",
        "        " + " = ".join(f"a{r}" for r in rows) + " = 0.0",
    ]
    for c in cols:
        lines.append(f"        if x{c} != 0.0:")
        lines += [f"            a{r} += u{r}_{c} * x{c}" for r in rows]
    lines += [
        f"        yield [{', '.join(f'a{r} + b{r}' for r in rows)}]",
        "",
        "",
        "def make_node(v, ws, h_steps, y_steps, xs, d_phi):",
        f"    {v_names} = v",
        *w_unpacks,
        "",
        "    def node(t, g):",
        *node_lines("        ", lambda i: f"d_phi[{i}]"),
        f"        {_names('q', rows)} = q",
        "        feedbacks = []",
        "        children = []",
    ]
    for i, lag in enumerate(lags):
        lines += [
            f"        if t > {lag}:",
            f"            feedbacks.append(y_steps[t - {1 + lag}])",
            f"            children.append((t - {lag}, [{', '.join(push_entries(i))}]))",
        ]
    lines += [
        "        return (q, xs[t - 1], feedbacks), children",
        "",
        "    return node",
        "",
        "",
    ]
    # The sweep keeps phi's gradient in locals, V's entries then c's.
    d_names = [f"dv{k}_{j}" for k in outs for j in rows] + [f"dc{k}" for k in outs]
    lines += [
        "def trrl_sweep(v, ws, h_steps, y_steps, xs, d_phi, g_tau):",
        f"    {v_names} = v",
        *w_unpacks,
        f"    {_names('', d_names)} = d_phi",
        "    tau = len(xs)",
        "    gs = [None] * (tau + 1)",
        "    gs[tau] = g_tau",
        "    log = []",
        "    pushes = peak = 0",
        f"    live = {y}",
        "    for t in range(tau, 0, -1):",
        "        g = gs[t]",
        "        if g is None:",
        "            continue",
        *node_lines("        ", d_names.__getitem__),
        f"        {_names('q', rows)} = q",
        "        feedbacks = []",
        "        log.append((q, xs[t - 1], feedbacks))",
    ]
    for i, lag in enumerate(lags):
        lines += [
            f"        if t > {lag}:",
            f"            feedbacks.append(y_steps[t - {1 + lag}])",
            "            pushes += 1",
            *(f"            e{k} = {e}" for k, e in enumerate(push_entries(i))),
            f"            s = gs[t - {lag}]",
            "            if s is None:",
            f"                gs[t - {lag}] = [{', '.join(f'e{k}' for k in outs)}]",
            f"                live += {y}",
            "            else:",
            *(f"                s[{k}] += e{k}" for k in outs),
        ]
    lines += [
        f"        live += {h}",
        "        if live > peak:",
        "            peak = live",
        f"        live -= {y}",
        f"    d_phi[:] = {_names('', d_names)}",
        "    return log, pushes, peak",
        "",
        "",
    ]
    # rtrl: row k of the new Jacobian sums, per column, the oldest
    # Jacobian's rows (lag i = p - 1) and then each other lag's rows, each
    # times its C_l[k][m] coefficient.
    ids = [f"{i}_{m}" for i in (p - 1, *range(p - 1)) for m in outs]
    lines += [
        "def rtrl_advance(cs, ring):",
        f"    {_names('j', ids[:y])} = ring.popleft()",
        *(
            f"    {_names('j', (f'{i}_{m}' for m in outs))} = ring[-{lag}]"
            for i, lag in enumerate(lags[:-1])
        ),
        "    new = []",
        f"    for {_names('c', ids)} in cs:",
        f"        new.append([{row_sum(f'c{i} * r{i}' for i in ids)}",
        f"                    for {_names('r', ids)} in zip({', '.join(f'j{i}' for i in ids)})])",
        "    return new",
        "",
        "",
    ]
    # The theta entries in packed order: U, each W_l, b, all row-major.
    theta_ids = (
        [f"u{r}_{c}" for r in rows for c in cols]
        + [f"w{i}_{r}_{k}" for i in range(p) for r in rows for k in outs]
        + [f"b{r}" for r in rows]
    )
    theta, n_theta = _names("", theta_ids), len(theta_ids)
    lines += [
        "def add_log(dest, log):",
        f"    {theta} = dest[:{n_theta}]",
        "    for q, x, feedbacks in log:",
        f"        {_names('q', rows)} = q",
        f"        {_names('x', cols)} = x",
    ]
    for c in cols:
        lines.append(f"        if x{c} != 0.0:")
        lines += [f"            u{r}_{c} += q{r} * x{c}" for r in rows]
    lines.append("        n = len(feedbacks)")
    for i in range(p):
        lines += [f"        if n > {i}:", f"            {_names('f', outs)} = feedbacks[{i}]"]
        lines += [f"            w{i}_{r}_{k} += q{r} * f{k}" for r in rows for k in outs]
    lines += [f"        b{r} += q{r}" for r in rows]
    lines += [f"    dest[:{n_theta}] = {theta}", ""]
    return "\n".join(lines)


# The compiled functions of one shape, in the order the source defines them.
Kernels = collections.namedtuple(
    "Kernels", "project make_node trrl_sweep rtrl_advance add_log"
)


@functools.lru_cache(maxsize=64)
def _kernels(hidden_dim: int, x_dim: int, y_dim: int, lag_set: tuple) -> Kernels:
    """``kernel_source`` compiled once per shape into ``Kernels``.  The
    compiled functions keep no state between calls.  The cache holds every
    shape of the gradcheck's instance set."""
    source = kernel_source(hidden_dim, x_dim, y_dim, lag_set)
    namespace = {"check_finite_step": check_finite_step}
    filename = f"<rnnp kernels h={hidden_dim} x={x_dim} y={y_dim} lags={lag_set}>"
    exec(compile(source, filename, "exec"), namespace)
    return Kernels(*(namespace[name] for name in Kernels._fields))
