"""The straight-line kernels of one model shape, generated and compiled once.

A shape is (hidden_dim, x_dim, y_dim, lag_set), fixed for a whole run.
``kernel_source`` writes the Python source of three functions for one
shape, with every loop over h, x, y and the lags unrolled into locals:

* ``project``, the input projection ``U x + b`` (``model.project_inputs``);
* ``make_node``, the unrolled tree's node that trrl and bptt walk
  (``engines._tree_gradients``);
* ``add_log``, the input-layer gradient pass of every engine
  (``engines._input_layer_terms``).

``_kernels`` compiles that source once per shape into one bounded cache.
This is the only module that generates or compiles code; the import order
is ``base <- kernels <- model <- engines``.  The kernels take the weights
as slices of the packed vectors of ``model.ModelParams`` (theta: U, each
W_l, b; phi: V, c), cut by their callers for the length of one call.
Every sum keeps the order of the loop it replaces, so the bits are those
of the loop form.
"""

from __future__ import annotations

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

    It defines three functions, compiled once per shape by ``_kernels``:

    * ``project(u, b, xs)``, a generator that unpacks theta's U and b slices
      into locals, then for each row of ``xs`` checks its length, unpacks
      it and yields ``[a_0 + b_0, a_1 + b_1, ...]``.  Each accumulator a_r
      starts at 0.0 and adds ``U[r,c] * x_c`` over increasing column c.
    * ``make_node(v, ws, h_steps, y_steps, xs, d_phi, add_macs, macs)``
      binds one trrl or bptt call's weights (phi's V slice, theta's
      W_l slices), trace and input rows as closure locals and returns
      the unrolled tree's node, ``node(t, g) -> (entry, children)``.  The
      node backpropagates the output gradient g of step t: it adds the
      output-layer terms (V, c) to ``d_phi`` and folds g into
      q = (V diag(h'))^T g, h' = h (1 - h).  ``entry`` is step t's
      input-layer log entry: q, the input row ``xs[t - 1]`` and the
      feedbacks of the lags that reach inside the window, a prefix of the
      lag set.  ``children`` yields ``(t - l, W_l^T q)`` for those lags in
      lag-set order, each push made only when the walk takes it; a push
      entry is a column of W_l dotted with q, summed from 0.0 over
      increasing row.  It counts ``macs`` (the dense
      2*y*h + 2*h + h*x + p*h*y multiplies) per node and h*y per push.
    * ``add_log(dest, log)`` adds the input-layer terms of a log of such
      entries to ``dest``, a theta-sized list.  It unpacks every theta
      entry (U, each W_l, b) into locals once; per log entry, in log
      order, it adds the products of the nonzero inputs, then the
      feedback terms of the lags that reach inside the window, then the
      bias terms; it writes ``dest`` back once.

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

    def row_sum(terms) -> str:
        return " + ".join(["0.0", *terms])

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
        "def make_node(v, ws, h_steps, y_steps, xs, d_phi, add_macs, macs):",
        f"    {_names('v', (f'{k}_{j}' for k in outs for j in rows))} = v",
    ]
    for i in range(len(lags)):
        ids = (f"{i}_{r}_{k}" for r in rows for k in outs)
        lines.append(f"    {_names('w', ids)} = ws[{i}]")
    lines += ["", "    def children(t, q):", f"        {_names('q', rows)} = q"]
    for i, lag in enumerate(lags):
        push = ", ".join(
            row_sum(f"w{i}_{r}_{k} * q{r}" for r in rows) for k in outs
        )
        lines += [
            f"        if t > {lag}:",
            f"            push = [{push}]",
            f"            add_macs({h * y})",
            f"            yield t - {lag}, push",
        ]
    lines += [
        "",
        "    def node(t, g):",
        f"        {_names('h', rows)} = h_steps[t - 1]",
        f"        {_names('g', outs)} = g",
    ]
    for k in outs:
        lines += [f"        d_phi[{k * h + j}] += g{k} * h{j}" for j in rows]
        lines.append(f"        d_phi[{y * h + k}] += g{k}")
    lines.append("        q = (")
    for j in rows:
        vt = row_sum(f"v{k}_{j} * g{k}" for k in outs)
        lines.append(f"            ({vt}) * (h{j} * (1.0 - h{j})),")
    lines += [
        "        )",
        '        check_finite_step(q, "folded gradient", t)',
        "        add_macs(macs)",
    ]
    # Lags increase, so those reaching inside the window are a prefix.
    keyword = "if"
    for n in range(len(lags), 0, -1):
        fbs = _names("y_steps", (f"[t - {1 + lag}]" for lag in lags[:n]))
        lines += [f"        {keyword} t > {lags[n - 1]}:", f"            feedbacks = {fbs}"]
        keyword = "elif"
    # The theta entries in packed order: U, each W_l, b, all row-major.
    theta = _names(
        "",
        [f"u{r}_{c}" for r in rows for c in cols]
        + [f"w{i}_{r}_{k}" for i in range(len(lags)) for r in rows for k in outs]
        + [f"b{r}" for r in rows],
    )
    lines += [
        "        else:",
        "            feedbacks = ()",
        "        return (q, xs[t - 1], feedbacks), children(t, q)",
        "",
        "    return node",
        "",
        "",
        "def add_log(dest, log):",
        f"    {theta} = dest",
        "    for q, x, feedbacks in log:",
        f"        {_names('q', rows)} = q",
        f"        {_names('x', cols)} = x",
    ]
    for c in cols:
        lines.append(f"        if x{c} != 0.0:")
        lines += [f"            u{r}_{c} += q{r} * x{c}" for r in rows]
    lines.append("        n = len(feedbacks)")
    for i in range(len(lags)):
        lines += [f"        if n > {i}:", f"            {_names('f', outs)} = feedbacks[{i}]"]
        lines += [f"            w{i}_{r}_{k} += q{r} * f{k}" for r in rows for k in outs]
    lines += [f"        b{r} += q{r}" for r in rows]
    lines += [f"    dest[:] = {theta}", ""]
    return "\n".join(lines)


@functools.lru_cache(maxsize=64)
def _kernels(hidden_dim: int, x_dim: int, y_dim: int, lag_set: tuple) -> tuple:
    """``kernel_source`` compiled once per shape: ``(project, make_node,
    add_log)``.  The compiled functions keep no state between calls.  The
    cache holds every shape of the gradcheck's instance set."""
    source = kernel_source(hidden_dim, x_dim, y_dim, lag_set)
    namespace = {"check_finite_step": check_finite_step}
    filename = f"<rnnp kernels h={hidden_dim} x={x_dim} y={y_dim} lags={lag_set}>"
    exec(compile(source, filename, "exec"), namespace)
    return namespace["project"], namespace["make_node"], namespace["add_log"]
