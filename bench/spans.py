"""Span tracing of vsmsim from outside the library.

``Tracer.install`` wraps every public function of the six layer modules
where it is called: modules import names with ``from ... import``, so
``vsmsim.protocol.validate_set`` and ``vsmsim.pauli.validate_set`` are
replaced separately, as is every other module attribute bound to the
same function object.  ``MeasurementModel`` is traced through its
``__post_init__`` (validation and meter derivation).  Spans are kept in
memory and written out once, at the end of the run.

A span is ``[name, op, parent, start, end, error, bytes]``.  ``bytes`` is
computed from the call's inputs (the size of the dense array the call
builds or reads), not measured.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time

from vsmsim import cli, entanglement, meter, pauli, protocol, statevec

LAYERS = {
    "pauli": pauli,
    "statevec": statevec,
    "meter": meter,
    "protocol": protocol,
    "entanglement": entanglement,
    "cli": cli,
}

COMPLEX_BYTES = 16


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _projector_bytes(args, kwargs):
    obs = _arg(args, kwargs, 0, "obs_set")
    return (COMPLEX_BYTES << obs.size) * 4**obs.n_sites


def _state_bytes(index, name):
    return lambda args, kwargs: _arg(args, kwargs, index, name).amplitudes.nbytes


# Computed bytes per call, for the layers whose cost is set by a dense array.
COMPUTED_BYTES = {
    "pauli.validate_set": _projector_bytes,
    "pauli.joint_pvm": _projector_bytes,
    "statevec.tensor": lambda a, k: COMPLEX_BYTES << sum(p.n for p in _arg(a, k, 0, "parts")),
    "statevec.apply_controlled": _state_bytes(3, "state"),
    "meter.kfold_meter": lambda a, k: COMPLEX_BYTES << _arg(a, k, 0, "spec").n_qubits,
    "protocol.couple": lambda a, k: COMPLEX_BYTES << (
        _arg(a, k, 1, "system").n + _arg(a, k, 0, "model").meter_spec.n_qubits
    ),
    "entanglement.n_tangle_contraction": _state_bytes(0, "state"),
    "entanglement.n_tangle_spinflip": _state_bytes(0, "state"),
}


class Tracer:
    """Records nested spans of calls into vsmsim while ``active`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nbytes = COMPUTED_BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [name, self.op, parent, 0.0, 0.0, False, 0]
            if nbytes is not None:
                try:
                    span[6] = nbytes(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # The signature changed; the byte count is left at 0.
                    pass
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for layer, module in LAYERS.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for user in LAYERS.values():
                    for user_attr, value in list(vars(user).items()):
                        if value is fn:
                            self._patch(user, user_attr, wrapped)
        model = protocol.MeasurementModel
        self._patch(model, "__post_init__",
                    self._wrap("protocol.MeasurementModel", model.__post_init__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> tuple[dict[str, list], dict[int, float]]:
        """Per-name [calls, self seconds, errors, bytes], and top-level time per op."""
        child = [0.0] * len(self.spans)
        for name, op, parent, start, end, error, nbytes in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, list] = {}
        top: dict[int, float] = {}
        for i, (name, op, parent, start, end, error, nbytes) in enumerate(self.spans):
            entry = stats.setdefault(name, [0, 0.0, 0, 0])
            entry[0] += 1
            entry[1] += end - start - child[i]
            entry[2] += int(error)
            entry[3] += nbytes
            if parent < 0:
                top[op] = top.get(op, 0.0) + end - start
        return stats, top

    def write(self, path: str) -> None:
        """All spans as gzip JSON lines, times in seconds from the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, op, parent, start, end, error, nbytes in self.spans:
                fh.write(json.dumps({
                    "name": name, "op": op, "parent": parent,
                    "start": start - origin, "end": end - origin,
                    "error": error, "bytes": nbytes,
                }) + "\n")
