"""Per-function call counts and self time, taken from outside the package.

`Tracer` wraps the public functions named in `TARGETS` wherever a fedme
module binds them: `engine.kmeans` as well as `clustering.kmeans`,
`harness.run_fedme` as well as `engine.run_fedme`, and the `nn` functions as
attributes of `fedme.nn`. Leaving the `with` block puts every original back
and checks that it did.

Self time is a call's duration minus the durations of the wrapped calls made
inside it. A function's layer is the module that defines it.
"""
from __future__ import annotations

import functools
import sys
import time

TARGETS = {
    "nn": ("dml_losses_and_grads", "ce_loss_and_grad", "sgd_step", "evaluate",
           "forward", "average_params", "init_model", "serialize_model"),
    "clustering": ("kmeans",),
    "engine": ("run_fedme", "model_outputs_on_unlabeled", "assign_exchanges",
               "dml_train", "aggregate", "redistribute", "fine_tune"),
    "baselines": ("run_local_only", "run_centralized", "run_fedavg",
                  "run_hypcluster"),
    "harness": ("run_single", "build_federation", "best_local_init",
                "write_round_log", "write_timings"),
    "data": ("generate_synthetic", "extract_unlabeled", "dirichlet_partition",
             "split_shard"),
}

FUNCTIONS = [f"{layer}.{name}" for layer, names in TARGETS.items()
             for name in names]


class TraceRestoreError(RuntimeError):
    """A wrapped function was still in place after tracing ended."""


class Stat:
    __slots__ = ("calls", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Context manager; `stats` maps 'layer.function' to a `Stat`.

    `record_args` names functions whose positional arguments are kept, one
    tuple per call, in `args`."""

    def __init__(self, record_args=()):
        self.stats = {key: Stat() for key in FUNCTIONS}
        self.args = {key: [] for key in record_args}
        self.missing = []
        self._stack = []     # per open call: summed duration of its children
        self._patched = []   # (module, attribute, original)
        self._wrappers = {}  # id -> wrapper, kept alive so ids stay unique

    def _wrap(self, key, fn):
        stat = self.stats[key]
        stack = self._stack
        recorded = self.args.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorded is not None:
                recorded.append(args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - children

        return wrapper

    def __enter__(self):
        modules = _fedme_modules()
        for layer, names in TARGETS.items():
            home = sys.modules[f"fedme.{layer}"]
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                self._wrappers[id(wrapper)] = wrapper
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        left = [f"{m.__name__}.{attr}" for m in _fedme_modules()
                for attr, value in vars(m).items() if id(value) in self._wrappers]
        if left:
            raise TraceRestoreError(f"still wrapped after tracing: {left}")
        return False


def _fedme_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "fedme" or name.startswith("fedme.")]
