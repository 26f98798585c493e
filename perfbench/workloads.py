"""Workload definitions and one closed-loop iteration of each.

An iteration is one unit of user-visible work: build the code and its mask,
train, evaluate, measure the norm budget and the T3/T4 bounds, and run the
verification suite.  Every call goes through an ``ecctlab`` module attribute
(``training.train``, not a name imported here), so the wrappers that
``spans.Tracer`` installs see each call.

Each workload reports every end-to-end metric, so each iteration also runs
``verification.run_all`` on Hamming(7,4) with the CLI defaults: that is the
verify workload of ``hamming7_mc`` and a fixed side load on the other two.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

from ecctlab import bounds, codes, masking, model, training, verification

# run_experiment's evaluation seed offset, so eval samples never repeat training ones
EVAL_SEED_OFFSET = 0x7E57
EBN0_DB = 2.0
DELTA = 0.05
RHO = 0.5           # CLI default noise deviation for theorem 4
VERIFY_D = 8        # CLI default for `ecctlab verify`
DEFAULT_SEED = 0

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    code: str               # "bch31", "hamming7" or "regular:n,r,w,seed"
    d: int
    T: int
    batch: int
    m: int
    epochs: int
    n_eval: int
    eval_chunk: int = 512
    train_set_ber: bool = False
    # training seeds a run cycles through; test_ber is their mean BER
    seeds: int = 3

    @property
    def train_samples(self) -> int:
        return self.m * self.epochs


WORKLOADS = {
    wl.name: wl
    for wl in (
        # One sweep trial as cli._sweep_task runs it: GEMM-bound, mask support 68%.
        Workload("bch31_train", "bch31", d=32, T=2, batch=128, m=12800, epochs=2,
                 n_eval=20000, train_set_ber=True),
        # Dense L x L attention over a 2% mask.  chunk=16 and B=16 because the
        # default chunk=512 needs about 2.3 GB per L x L array (see README.md);
        # train_set_ber is skipped for the same reason: its chunk is fixed at 512.
        Workload("ldpc756_sparse", "regular:504,252,3,0", d=32, T=2, batch=16, m=256,
                 epochs=1, n_eval=256, eval_chunk=16),
        # Tiny arrays: per-sample channel sampling dominates.  Eight seeds, because
        # one model's BER varies by 9% from seed to seed here (under 1% elsewhere).
        Workload("hamming7_mc", "hamming7", d=8, T=1, batch=128, m=12800, epochs=5,
                 n_eval=128000, seeds=8),
    )
}


def build_code(wl: Workload) -> codes.ParityCheckMatrix:
    if wl.code == "bch31":
        return codes.bch_31_16()
    if wl.code == "hamming7":
        return codes.hamming_7_4()
    n, r, w, seed = (int(tok) for tok in wl.code.split(":", 1)[1].split(","))
    return codes.random_regular_code(n, r, w, seed)


def model_config(wl: Workload, H: codes.ParityCheckMatrix) -> model.ECCTConfig:
    return model.ECCTConfig(n=H.n, r=H.r, d=wl.d, T=wl.T, masked=True)


def build(wl: Workload):
    """The code, its mask and the model config, as every iteration starts."""
    H = build_code(wl)
    mask = masking.build_mask(H)
    return H, mask, model_config(wl, H)


def setup(wl: Workload, seed: int):
    """What a run does before its first timed call: build(), then the weights."""
    H, mask, cfg = build(wl)
    return H, mask, cfg, model.init_weights(cfg, seed)


def load_reference(name: str) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["workloads"][name]


@dataclass
class IterationResult:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    train_s: float = math.nan
    eval_s: float = math.nan
    verify_s: float = math.nan
    test_ber: float = math.nan
    ber_bits: int = 0       # bits test_ber was measured on
    wall_s: float = math.nan

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)


def _mc_halfwidth(ber: float, bits: int) -> float:
    """4 Monte Carlo standard errors of a BER over `bits` bits (counted as independent)."""
    p = min(max(ber, 1e-6), 1 - 1e-6)
    return 4.0 * math.sqrt(p * (1.0 - p) / bits)


def ber_tolerance(ref: dict, seed: int, ber: float, bits: int) -> tuple[float, float]:
    """(center, half-width) of the accepted band for one iteration's test_ber.

    The default seed must reproduce the seed commit's value within 4 Monte
    Carlo standard errors.  Another seed also gets 6 times the seed-to-seed
    deviation measured on the seed commit.
    """
    mc = _mc_halfwidth(ber, bits)
    if seed == DEFAULT_SEED:
        return ref["default_seed_ber"], mc
    return ref["seed_mean_ber"], mc + 6.0 * ref["seed_sd_ber"]


def check_run_ber(wl: Workload, its: list[IterationResult], ref: dict) -> IterationResult:
    """Gate the run's test_ber, the mean over its first wl.seeds iterations.

    The band is the seed commit's mean over seeds, plus 3.5 or minus 6
    seed-to-seed deviations of a mean of wl.seeds, widened by 4 Monte Carlo
    standard errors of the pooled bits.  It leans low because the gate is
    there to catch lost quality, and because one seed's BER has a long lower
    tail (on hamming7_mc 0.054-0.090 over 100 seeds) and a short upper one.
    On hamming7_mc it excludes 0.089, the BER of hard decisions alone.
    """
    res = IterationResult()
    bers = [r.test_ber for r in its[:wl.seeds]]
    if len(bers) < wl.seeds or not all(map(math.isfinite, bers)):
        res.check("run test_ber", False, f"per-seed BERs {bers}")
        return res
    ber = statistics.fmean(bers)
    sd = ref["seed_sd_ber"] / math.sqrt(wl.seeds)
    mc = _mc_halfwidth(ber, wl.seeds * its[0].ber_bits)
    lo = ref["seed_mean_ber"] - 6.0 * sd - mc
    hi = ref["seed_mean_ber"] + 3.5 * sd + mc
    res.check("run test_ber", lo <= ber <= hi, f"mean {ber:.6f} outside [{lo:.6f}, {hi:.6f}]")
    return res


def run_iteration(wl: Workload, seed: int, ref: dict | None) -> IterationResult:
    """One unit of work; a call that raises counts as one failed operation.

    With ref None (calibration, before a reference exists) test_ber is
    measured but not gated.
    """
    res = IterationResult()
    phase = "setup"
    t_start = time.perf_counter()
    try:
        H, mask, cfg = build(wl)
        tcfg = training.TrainConfig(
            m=wl.m, ebn0_db=EBN0_DB, epochs=wl.epochs, batch_size=wl.batch,
            seed=seed, eval_size=wl.n_eval,
        )

        phase = "train"
        t0 = time.perf_counter()
        weights, history = training.train(H, mask, cfg, tcfg)
        res.train_s = time.perf_counter() - t0
        res.check("train", len(history) == wl.epochs and math.isfinite(history[-1].loss),
                  f"history {history[-1:]}")

        if wl.train_set_ber:
            phase = "train_set_ber"
            train_ber = training.train_set_ber(H, mask, cfg, tcfg, weights)
            res.check("train_set_ber", 0.0 <= train_ber <= 1.0, f"{train_ber}")

        phase = "evaluate"
        t0 = time.perf_counter()
        ber = training.evaluate(weights, H, mask, cfg, wl.n_eval, EBN0_DB,
                                seed + EVAL_SEED_OFFSET, chunk=wl.eval_chunk)
        res.eval_s = time.perf_counter() - t0
        res.test_ber = ber
        res.ber_bits = wl.n_eval * H.n
        if ref is not None:
            center, tol = ber_tolerance(ref, seed, ber, res.ber_bits)
            res.check("test_ber", abs(ber - center) <= tol,
                      f"{ber:.6f} outside {center:.6f} +- {tol:.6f}")

        phase = "bounds"
        samples = training.make_dataset(H, min(256, wl.m), EBN0_DB, seed)
        y_tilde, _, _, _ = training.stack_inputs(samples)
        nb = model.measure_norm_budget(weights, model.embed(y_tilde, weights.w_emb), cfg)
        P = masking.sparsity(mask).P
        dims = bounds.Dims(L=cfg.L, d=cfg.d, u=cfg.u, T=cfg.T)
        t3 = bounds.gen_bound("T3", wl.m, DELTA, dims, nb, P)
        res.check("bound_T3", math.isfinite(t3.total), f"total {t3.total}")
        t4 = bounds.gen_bound_awgn(wl.m, DELTA, dims, nb, P, rho=RHO, b_emb=nb.b_emb, n=H.n)
        res.check("bound_T4", math.isfinite(t4.total), f"total {t4.total}")

        phase = "verify"
        t0 = time.perf_counter()
        reports, control = verification.run_all(codes.hamming_7_4(), d=VERIFY_D, seed=seed)
        res.verify_s = time.perf_counter() - t0
        for report in reports:
            res.check(f"verify {report.name}", report.passed,
                      f"max_violation {report.max_violation:.3e}")
        res.check(f"verify {control.name}", not control.passed, "control passed")
    except Exception as exc:  # a raising call is a failed operation, not a crash
        res.check(phase, False, f"raised {exc!r}")
    res.wall_s = time.perf_counter() - t_start
    return res
