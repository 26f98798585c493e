"""Span tracing from outside the program.

``Tracer.install`` replaces each traced ``ecctlab`` function with a wrapper at
every place a caller looks it up: each ``ecctlab`` module attribute bound to
the original function object, so ``model.forward`` finds the wrapped
``attention_layer`` and ``verification`` finds the wrapped ``build_mask`` it
imported by name.  ``uninstall`` puts the originals back.

A span is (name, start, end, parent).  Spans live in flat in-memory arrays
and are written once, by ``save``, when the benchmark ends.  A span's self
time is its duration minus the durations of its direct children; calls are
strictly nested on one thread, so children never overlap, and a span's
descendants are exactly the spans opened after it and before it closed.

Inside ``verification.run_all`` the checks call the model, channel and
training layers on their own small inputs.  ``per_iteration`` folds each such
span into the verification span that encloses it: its self time counts for
the check, and it adds no call or work to the layer it belongs to.  Layer
metrics then describe the workload's own train/eval/bound phases, and the
verification spans explain ``verify_s``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

import ecctlab  # noqa: F401  (loads every module named in TRACED)
from ecctlab import model

ROOT_SPAN = "bench.iteration"
VERIFY_PREFIX = "verification."
VERIFY_ROOT = "verification.run_all"

# (module, function) pairs traced, and the span name each reports under.
# The three code constructors share one name so every workload reports it;
# train_set_ber is left out because only bch31_train calls it.
TRACED = {
    ("channel", "sample_rng"): "channel.sample_rng",
    ("channel", "make_sample"): "channel.make_sample",
    ("training", "make_dataset"): "training.make_dataset",
    ("training", "stack_inputs"): "training.stack_inputs",
    ("training", "train"): "training.train",
    ("training", "evaluate"): "training.evaluate",
    ("training", "bce_loss"): "training.bce_loss",
    ("training", "adam_step"): "training.adam_step",
    ("model", "init_weights"): "model.init_weights",
    ("model", "embed"): "model.embed",
    ("model", "forward"): "model.forward",
    ("model", "attention_layer"): "model.attention_layer",
    ("model", "masked_softmax"): "model.masked_softmax",
    ("model", "decide"): "model.decide",
    ("model", "backward"): "model.backward",
    ("model", "measure_norm_budget"): "model.measure_norm_budget",
    ("bounds", "gen_bound"): "bounds.gen_bound",
    ("bounds", "gen_bound_awgn"): "bounds.gen_bound_awgn",
    ("masking", "build_mask"): "masking.build_mask",
    ("codes", "hamming_7_4"): "codes.construct",
    ("codes", "bch_31_16"): "codes.construct",
    ("codes", "random_regular_code"): "codes.construct",
    ("verification", "run_all"): "verification.run_all",
    ("verification", "check_gradient_sparsity"): "verification.check_gradient_sparsity",
    ("verification", "check_gradient_sparsity_control"):
        "verification.check_gradient_sparsity_control",
    ("verification", "check_lemma_equivalence"): "verification.check_lemma_equivalence",
    ("verification", "check_finite_difference"): "verification.check_finite_difference",
    ("verification", "check_lipschitz_empirical"): "verification.check_lipschitz_empirical",
    ("verification", "check_frobenius_contraction"):
        "verification.check_frobenius_contraction",
}


def forward_flops(L: int, d: int, ud: int, n: int, T: int, batch: int) -> float:
    """Matmul FLOPs of one forward pass, computed from the dimensions."""
    # per layer: x@Wqk, (xWqk)@x^T, a@x, h_att@Wv, h_v@Wf1, h_sigma@Wf2
    layer = 2 * L * d * d + 4 * L * L * d + 2 * L * d * d + 4 * L * d * ud
    return float(batch * (T * layer + 2 * L * d + 2 * L * n))


def backward_flops(L: int, d: int, ud: int, n: int, T: int, batch: int) -> float:
    """Matmul FLOPs of one backward pass, computed from the dimensions."""
    # per layer: four FFN products (8 L d ud), five d x d products (10 L d^2),
    # five L x L products (10 L^2 d)
    layer = 8 * L * d * ud + 10 * L * d * d + 10 * L * L * d
    return float(batch * (T * layer + 4 * L * n + 4 * L * d))


def _cache_nbytes(cache: model.ForwardCache) -> int:
    total = cache.x0.nbytes + cache.h_o1.nbytes + cache.z_hat.nbytes + cache.y_tilde.nbytes
    for lc in cache.layers:
        total += sum(arr.nbytes for arr in (lc.x_in, lc.u, lc.a, lc.h_att, lc.h_v,
                                            lc.h_f1, lc.h_sigma, lc.x_out))
    return total


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.roots: list[int] = []   # the ROOT_SPAN of each traced iteration
        # work computed from the calls: (span index, counter name, amount)
        self.work: list[tuple[int, str, float]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.name_id)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_iteration(self) -> int:
        root = self.open(ROOT_SPAN)
        self.roots.append(root)
        return root

    # -- work counters, read from each call's arguments and result ---------

    def _count_softmax(self, idx, args, kwargs, a) -> None:
        omega = args[1] if len(args) > 1 else kwargs.get("omega")
        L = a.shape[-1]
        nnz = L * L if omega is None else int(np.count_nonzero(omega))
        self.work.append((idx, "model.masked_softmax.entries", a.size))
        self.work.append((idx, "model.masked_softmax.useful", a.size // (L * L) * nnz))

    def _count_forward(self, idx, args, kwargs, result) -> None:
        z_hat, cache = result
        batch = cache.y_tilde.shape[0] if cache.batched else 1
        L, d = cache.x0.shape[-2:]
        ud = cache.layers[0].h_f1.shape[-1] if cache.layers else d
        self.work.append((idx, "model.forward.flops", forward_flops(
            L, d, ud, z_hat.shape[-1], len(cache.layers), batch)))
        self.work.append((idx, "model.forward.samples", batch))
        self.work.append((idx, "model.forward.cache_bytes", _cache_nbytes(cache)))

    def _count_backward(self, idx, args, kwargs, grads) -> None:
        batch = grads.dx0.shape[0] if grads.dx0.ndim == 3 else 1
        L, d = grads.w_emb.shape
        ud = grads.layers[0].w_f1.shape[-1] if grads.layers else d
        self.work.append((idx, "model.backward.flops", backward_flops(
            L, d, ud, grads.w_o2.shape[-1], len(grads.layers), batch)))

    def _wrap(self, fn, name: str, count=None):
        """Record one span per call; inlined because it runs per channel sample."""
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(idx, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        counters = {
            "model.masked_softmax": self._count_softmax,
            "model.forward": self._count_forward,
            "model.backward": self._count_backward,
        }
        modules = [mod for mod_name, mod in sys.modules.items() if mod is not None
                   and (mod_name == "ecctlab" or mod_name.startswith("ecctlab."))]
        for (mod_name, attr), name in TRACED.items():
            original = getattr(sys.modules[f"ecctlab.{mod_name}"], attr)
            wrapper = self._wrap(original, name, counters.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def _fold_verification(self, a: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """(label, folded): the name each span's self time counts under, and
        which spans sit inside a verification span without being one."""
        label = a["name_id"].copy()
        folded = np.zeros(len(label), dtype=bool)
        verify_ids = {i for i, name in enumerate(self.names) if name.startswith(VERIFY_PREFIX)}
        parent = a["parent"]
        for root in np.flatnonzero(label == self._ids.get(VERIFY_ROOT, -1)):
            last = int(np.searchsorted(a["start"], a["end"][root], side="left"))
            for i in range(root + 1, last):
                if label[i] not in verify_ids:
                    label[i] = label[parent[i]]
                    folded[i] = True
        return label, folded

    def per_iteration(self) -> list[dict]:
        """Per traced iteration: {name: (calls, self_s, total_s)}, wall time, work."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        label, folded = self._fold_verification(a)
        bounds = self.roots + [len(dur)]
        out = []
        for k, root in enumerate(self.roots):
            sl = slice(root, bounds[k + 1])
            own = ~folded[sl]
            ids = a["name_id"][sl][own]
            size = len(self.names)
            calls = np.bincount(ids, minlength=size)
            totals = np.bincount(ids, weights=dur[sl][own], minlength=size)
            selfs = np.bincount(label[sl], weights=self_time[sl], minlength=size)
            table = {name: (int(calls[i]), float(selfs[i]), float(totals[i]))
                     for i, name in enumerate(self.names) if calls[i]}
            work = Counter()
            for idx, key, amount in self.work:
                if root <= idx < bounds[k + 1] and not folded[idx]:
                    work[key] += amount
            out.append({"wall_s": float(dur[root]), "spans": table, "counts": dict(work)})
        return out

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)),
                 roots=np.array(self.roots, dtype=np.int64), **self.arrays())
