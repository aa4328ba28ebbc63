"""Execution mappings: translate abstract workflows onto substrates.

``run_graph(graph, mapping=..., ...)`` is the single entry point the rest
of the framework uses.  Every mapping is a placement over the one
route → invoke → finish kernel (:mod:`repro.d4py.mappings.kernel`):

* ``simple`` — sequential reference semantics, inline
  (:func:`repro.d4py.mappings.simple.run_simple`);
* ``multi`` — static ranks over forked processes
  (:func:`repro.d4py.mappings.multi.run_multi`);
* ``dynamic`` — an elastic, autoscaling worker pool over the simulated
  Redis broker (:func:`repro.d4py.mappings.dynamic.run_dynamic`).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.d4py.mappings.base import (
    RunResult,
    Stopped,
    normalize_inputs,
    partition_processes,
)
from repro.d4py.mappings.dynamic import run_dynamic
from repro.d4py.mappings.kernel import DrainTimeout
from repro.d4py.mappings.multi import run_multi
from repro.d4py.mappings.simple import run_simple

MAPPINGS = ("simple", "multi", "mpi", "dynamic")

#: The most workers, ranks or instances per PE a client may ask for.
MAX_PARALLELISM = 64

_RUNNERS = {"simple": run_simple, "multi": run_multi, "mpi": run_multi, "dynamic": run_dynamic}
_ALL = frozenset(MAPPINGS)
_POOLED = frozenset({"multi", "mpi", "dynamic"})
_DYNAMIC = frozenset({"dynamic"})


def _flag(value: Any) -> bool:
    return isinstance(value, bool)


def _count(value: Any) -> bool:
    return type(value) is int and 1 <= value <= MAX_PARALLELISM


def _frame(value: Any) -> bool:
    return value is None or value == "adaptive" or (type(value) is int and value >= 1)


#: Every run option: the check a value sent by a client must pass
#: (``None``: set by the server only) and the mappings that take it.  A
#: mapping ignores an option it does not take, so one option set suits
#: every mapping.  ``sandbox`` is the execution engine's own; ``verbose``
#: is the engine's and ``multi``'s (Fig 5b's per-rank lines).
OPTIONS: dict[str, tuple[Callable[[Any], bool] | None, frozenset[str]]] = {
    "sandbox": (_flag, frozenset()),
    "verbose": (_flag, frozenset({"multi", "mpi"})),
    "trace": (_flag, _ALL),
    "tracer": (None, _ALL),
    "registry": (None, _ALL),
    "provenance": (_flag, frozenset({"simple"})),
    "num_processes": (_count, _POOLED),
    "batch_max_items": (_frame, _POOLED),
    "min_workers": (_count, _DYNAMIC),
    "max_workers": (_count, _DYNAMIC),
    "instances_per_pe": (_count, _DYNAMIC),
    "autoscale": (_flag, _DYNAMIC),
    "fuse": (_flag, _DYNAMIC),
}


def _check_provenance(options: Mapping[str, Any], mapping: str) -> None:
    if options.get("provenance") and mapping not in OPTIONS["provenance"][1]:
        raise ValueError("run option 'provenance' is only supported by the simple mapping")


def check_options(options: Mapping[str, Any], mapping: str) -> None:
    """Raise ``ValueError`` naming the first option a client may not send
    with ``mapping``: one not in :data:`OPTIONS`, one the server sets, a
    bad value (worker, rank and instance counts run from 1 to
    :data:`MAX_PARALLELISM`), or ``provenance`` outside ``simple``."""
    for name, value in options.items():
        if name not in OPTIONS:
            raise ValueError(f"unknown run option {name!r}")
        check = OPTIONS[name][0]
        if check is None:
            raise ValueError(f"run option {name!r} is set by the server")
        if not check(value):
            raise ValueError(f"invalid value for run option {name!r}: {value!r}")
    _check_provenance(options, mapping)


def run_graph(
    graph,
    input: Any = 1,
    mapping: str = "simple",
    stop=None,
    **options: Any,
) -> RunResult:
    """Enact ``graph`` with the chosen mapping.

    ``stop`` is the run's stop token (a :class:`threading.Event`; library
    callers pass ``None``): once it is set, every mapping raises
    :class:`Stopped` at its next PE-invocation boundary.

    ``options`` are those of :data:`OPTIONS`; each mapping receives the
    ones it takes and ignores the rest, and anything else is a
    ``TypeError``.  ``simple`` takes ``provenance`` (any other mapping
    refuses it).  ``multi`` (and its ``mpi`` alias) takes
    ``num_processes``, ``verbose`` and a fixed ``batch_max_items``.
    ``dynamic`` takes ``min_workers`` / ``max_workers`` (``num_processes``
    sets the latter) / ``instances_per_pe`` / ``autoscale`` and the
    batching knobs ``batch_max_items`` / ``fuse``.  ``trace`` /
    ``tracer`` / ``registry`` are accepted by every mapping: with
    ``trace=True`` the result carries a span tree on ``result.trace``, and
    per-instance metrics are recorded into ``registry`` (or the process
    default).  A ``multi`` or ``dynamic`` run without progress for
    :data:`~repro.d4py.mappings.kernel.STALL_TIMEOUT` seconds raises
    :class:`DrainTimeout`.
    """
    run = _RUNNERS.get(mapping)
    if run is None:
        raise ValueError(f"unknown mapping {mapping!r}; expected one of {MAPPINGS}")
    unknown = sorted(set(options) - set(OPTIONS))
    if unknown:
        raise TypeError(f"{mapping} mapping got unexpected options {unknown}")
    _check_provenance(options, mapping)
    taken = {name: value for name, value in options.items() if mapping in OPTIONS[name][1]}
    if mapping == "dynamic" and "num_processes" in taken:
        taken.setdefault("max_workers", taken.pop("num_processes"))
    return run(graph, input=input, stop=stop, **taken)


__all__ = [
    "MAPPINGS",
    "MAX_PARALLELISM",
    "OPTIONS",
    "DrainTimeout",
    "RunResult",
    "Stopped",
    "check_options",
    "normalize_inputs",
    "partition_processes",
    "run_dynamic",
    "run_graph",
    "run_multi",
    "run_simple",
]
