"""Traced run of one hcgame command in a fresh interpreter, and span summaries.

    python3 perfbench/tracer.py OUT_PREFIX -- verify all --quick --seed 1

runs ``hcgame.cli.main`` on the arguments after ``--`` with the functions in
``LAYERS`` wrapped, prints the report as the CLI would, exits with the CLI's
exit code and writes two files:

- ``OUT_PREFIX.npy``: one row per call, ``(span id, parent id, name index,
  start, end)``, kept in memory during the run and written at the end;
- ``OUT_PREFIX.json``: span names, the ``import hcgame.cli`` time, counts of
  ``FacetAssignment`` objects created and of no-signalling support entries
  built, and the ``cache_info()`` of the two quantum caches.

A function is wrapped in every ``hcgame`` module that binds it, not only
where it is defined: ``predicate`` is looked up in ``classical``,
``nosignalling`` and ``cli``, so a wrapper on ``game`` alone would record
nothing for those callers.  Parents are tracked per thread; a call made in a
``--jobs`` pool thread starts a new root, so its caller's self time includes
the wait for the pool.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time

LAYERS = {
    "quantum": (
        "outcome_distribution",
        "winning_probability_simulated",
        "winning_probability_operator",
        "outcome_to_answer",
        "maximize_r",
    ),
    "inequalities": (
        "induced_edge_observable",
        "verify_converse_chain",
        "relaxed_win_bound",
        "build_S_T",
        "run_lemma2_trials",
        "lemma2_lhs",
        "verify_lemma3",
    ),
    "nosignalling": (
        "build_ns_correlation",
        "verify_normalization",
        "verify_no_signalling",
        "ns_winning_probability",
        "export_lines",
    ),
    "classical": ("brute_force_classical_value", "strategy_value"),
    "game": ("predicate", "consistency_ok", "product_over_intersection", "answer_from_masks"),
    "linalg": ("apply_single_qubit", "matpow", "expectation", "tensor"),
    "cli": (
        "verify_classical",
        "verify_quantum",
        "verify_nosignalling",
        "verify_lemma2",
        "verify_lemma3",
        "verify_converse",
        "verify_chsh_equivalence",
        "verify_all",
    ),
}


class Recorder:
    """Spans of wrapped calls, appended as each call returns."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, float, float]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else -1
            span = next(ids)
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span, parent, index, start, end))

        traced.__wrapped__ = fn
        return traced


def _rebind(original, replacement) -> None:
    """Replace ``original`` in every loaded hcgame module that binds it."""
    for name, module in list(sys.modules.items()):
        if name == "hcgame" or name.startswith("hcgame."):
            for attr in [a for a, v in vars(module).items() if v is original]:
                setattr(module, attr, replacement)


def main(argv: list[str]) -> int:
    out_prefix, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT_PREFIX -- HCGAME_ARGS...")
    start = time.perf_counter()
    import hcgame.cli

    import_s = time.perf_counter() - start
    from hcgame import game, quantum

    caches = {"win_table": quantum._win_table, "maximize_r": quantum.maximize_r}
    recorder = Recorder()
    for module_name, names in LAYERS.items():
        module = sys.modules[f"hcgame.{module_name}"]
        for name in names:
            original = getattr(module, name)
            _rebind(original, recorder.wrap(f"{module_name}.{name}", original))

    created = itertools.count()
    post_init = game.FacetAssignment.__post_init__

    def counted_post_init(self):
        next(created)
        post_init(self)

    game.FacetAssignment.__post_init__ = counted_post_init

    support_entries = []
    build = hcgame.nosignalling.build_ns_correlation

    def counted_build(m):
        corr = build(m)
        support_entries.append(sum(len(entries) for entries in corr.support.values()))
        return corr

    _rebind(build, counted_build)

    try:
        code = hcgame.cli.main(command)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()

    import numpy as np  # not at the top of this file, so that import_s includes numpy

    np.save(f"{out_prefix}.npy", np.array(recorder.spans, dtype=np.float64).reshape(-1, 5))
    with open(f"{out_prefix}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "names": recorder.names,
                "import_s": import_s,
                "facet_assignments_created": next(created),
                "support_entries": sum(support_entries),
                **{name: list(cache.cache_info()[:2]) for name, cache in caches.items()},
            },
            handle,
        )
    return code


def summarize(spans, names: list[str]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, inclusive seconds and self seconds.

    A span's self time is its duration minus the durations of the spans
    whose parent it is; those run inside it on its own thread.  None of the
    wrapped functions calls itself, so inclusive time needs no recursion
    correction.
    """
    import numpy as np

    spans = np.asarray(spans, dtype=np.float64).reshape(-1, 5)
    order = np.argsort(spans[:, 0])
    span_id, parent, name, start, end = spans[order].T
    n = len(span_id)
    if not np.array_equal(span_id, np.arange(n)):
        raise ValueError("span ids are not 0..n-1; the traced run lost spans")
    duration = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent].astype(np.int64), weights=duration[has_parent], minlength=n)
    self_time = duration - child_time
    name = name.astype(np.int64)
    calls = np.bincount(name, minlength=len(names))
    inclusive = np.bincount(name, weights=duration, minlength=len(names))
    exclusive = np.bincount(name, weights=self_time, minlength=len(names))
    return {
        label: {"calls": int(calls[k]), "s": float(inclusive[k]), "self_s": float(exclusive[k])}
        for k, label in enumerate(names)
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
