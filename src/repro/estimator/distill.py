"""Distilled fast-path estimator: a tiny raw-numpy student of the ResNet9.

OmniBoost pays the full convolutional estimator for every one of the
~500 candidate queries of a decision (paper Section V-B).  The
cheap-proxy-then-verify pattern (RankMap's priority ranker, DynO's
onloading cost model -- see PAPERS.md) cuts that bill: a student
model orders of magnitude smaller than the teacher *pre-ranks* each
MCTS rollout micro-batch, only the top-k survivors reach the full
compiled estimator, and the non-survivors back up a calibrated
student estimate as their reward.

The student's one job is *within-workload ranking*: every pruning
decision compares candidate mappings for ONE workload, so absolute
throughput accuracy is worthless if the ordering is wrong.  Three
design choices follow (each one validated empirically against the
naive flat-feature student, whose within-workload rank correlation
was near zero because mix identity dominates the MSE):

* **per-mix-centered targets** -- the teacher's reward for each
  distillation pair has its mix's mean subtracted, so training
  variance IS the within-mix signal instead of being drowned by it;
* **compact structural features** (per-(device, model) load sums,
  per-device totals and active-cell counts, the closed-form
  :class:`~repro.baselines.ga.StaticCostModel` estimate, and the
  mapping's stage count), batch-centered at both train and inference
  time so the model only ever sees within-mix deviations;
* **a linear shortcut with a gated nonlinear head** -- the linear
  path is fit in closed form (ridge), the tanh hidden layer is
  trained on the residual, and its blend weight ``alpha`` is chosen
  on held-out distillation mixes with ``alpha = 0`` allowed.  The
  student can therefore never validate worse than its own linear
  path, while keeping capacity for nonlinear structure when the
  held-out mixes support it.

The contract that keeps this an optimization rather than an accuracy
trade (enforced by the engine's fast-path adapter,
:meth:`repro.engine.SchedulingEngine._pruned`, and its certification
step, and pinned in ``tests/test_distill.py``):

* the **final chosen mapping's score always comes from the full
  estimator** -- the engine re-certifies the search's pick and swaps
  in the best *fully-scored* incumbent if the pick only carried a
  student proxy score;
* the student is **advisory**: it decides evaluation *order and
  budget*, never the served number;
* **exact-mode fallback**: on degraded resilience tiers, for
  objective-scored requests (the student ranks the paper's
  mean-throughput reward, not arbitrary objectives), or when the
  teacher's :attr:`~repro.nn.layers.Module.version` has moved since
  distillation, pruning disables itself and every candidate gets the
  full estimator again.

Everything here is raw numpy (no new dependencies); distillation is
deterministic for a fixed ``(groups, policy)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..sim.mapping import Mapping
from ..workloads.mix import Workload

__all__ = ["FastPathPolicy", "DistilledEstimator", "distill_estimator"]

#: Candidate blend weights for the nonlinear head; 0.0 first so ties
#: resolve to the pure linear path.
_ALPHA_GRID = (0.0, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class FastPathPolicy:
    """Knobs for the distilled fast path (pruning + distillation).

    ``keep_fraction``/``min_keep`` bound how many candidates of each
    rollout micro-batch survive to the full estimator;
    ``eval_batch_size`` widens the MCTS micro-batch so each round has
    a pool worth ranking (at the default batch size of 1 there is
    nothing to prune); ``explore_factor`` multiplies the decision's
    candidate budget -- student forwards are ~free, so the fast path
    spends its savings *searching wider*: the defaults turn a
    500-query decision into a 4000-candidate search that performs
    ~89 full forwards (80 rounds of 50 with one survivor each, plus
    certification).  The remaining fields configure the one-time
    distillation run: ``mixes`` workload mixes with
    ``mappings_per_mix`` random contiguous mappings each (within-mix
    contrast is the whole point -- see the module docstring), the
    last ``holdout_mixes`` of them reserved for choosing the
    nonlinear head's blend weight.
    """

    keep_fraction: float = 0.02
    min_keep: int = 1
    eval_batch_size: int = 50
    explore_factor: int = 8
    #: How many of the highest-proxy-scored *pruned* candidates get a
    #: full-estimator forward at certification time (one batched call
    #: per decision).  The student's most likely mis-ranking is hiding
    #: the true best mapping just below the per-round cut; recertifying
    #: its global top picks recovers those for the final max.
    recertify: int = 8
    mixes: int = 40
    mappings_per_mix: int = 12
    holdout_mixes: int = 8
    epochs: int = 300
    hidden: int = 16
    batch_size: int = 32
    learning_rate: float = 2e-3
    weight_decay: float = 1e-3
    ridge_lambda: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        if self.min_keep < 1:
            raise ValueError("min_keep must be >= 1")
        if self.eval_batch_size < 1:
            raise ValueError("eval_batch_size must be >= 1")
        if self.explore_factor < 1:
            raise ValueError("explore_factor must be >= 1")
        if self.recertify < 0:
            raise ValueError("recertify must be >= 0")
        if self.mixes < 2 or self.mappings_per_mix < 2:
            raise ValueError(
                "distillation needs >= 2 mixes and >= 2 mappings per mix"
            )
        if not 0 < self.holdout_mixes < self.mixes:
            raise ValueError("holdout_mixes must be in (0, mixes)")

    def keep_count(self, batch_size: int) -> int:
        """How many of ``batch_size`` candidates get the full estimator."""
        fractional = int(np.ceil(self.keep_fraction * batch_size))
        return min(batch_size, max(self.min_keep, fractional))


class DistilledEstimator:
    """A raw-numpy linear+tanh student ranking candidates for one mix.

    :meth:`score_candidates` returns *centered* scores: the candidate
    batch's features are centered over the batch itself, so the output
    approximates ``reward - mean(batch rewards)`` in units of
    ``reward_scale``.  Higher is better; the engine calibrates these
    back onto the full-reward scale with the survivors it fully
    evaluates.  ``query_count`` tracks student forwards the way the
    teacher's counter tracks full forwards
    (``ServiceStats.distilled_queries``).
    """

    def __init__(self, teacher, cost_model, policy: FastPathPolicy) -> None:
        self._embedding = teacher.embedding
        self._cost_model = cost_model
        self.policy = policy
        self.num_devices = int(teacher.embedding.num_devices)
        devices, _layers, columns = teacher.embedding.input_shape
        #: per-(device, model) sums + per-device sums + per-device
        #: active-cell counts + per-device profiled-latency loads
        #: (raw and sorted: the bottleneck device caps throughput) +
        #: latency-load spread + static estimate + stage count.
        self.feature_dim = int(devices * columns + 4 * devices + 3)
        rng = np.random.default_rng(policy.seed)
        self.linear = np.zeros(self.feature_dim)
        self.w1 = rng.normal(
            0.0,
            np.sqrt(2.0 / self.feature_dim),
            (self.feature_dim, policy.hidden),
        )
        self.b1 = np.zeros(policy.hidden)
        self.w2 = rng.normal(0.0, 0.01, (policy.hidden, 1))
        #: Blend weight of the nonlinear head, chosen on held-out
        #: mixes at distillation time; 0.0 = pure linear path.
        self.alpha: float = 0.0
        self.feature_scale = np.ones(self.feature_dim)
        #: Std of the centered teacher rewards: multiplying a score by
        #: this recovers reward-space deviations (engine calibration).
        self.reward_scale: float = 1.0
        #: Teacher ``Module.version`` the student was distilled against;
        #: a moved version means stale knowledge -> exact-mode fallback.
        self.teacher_version: int = int(teacher.network.version)
        #: Student forwards performed (one per candidate mapping).
        self.query_count: int = 0
        #: Final training MSE against the centered teacher rewards.
        self.train_loss: float = float("nan")
        #: Mean held-out within-mix rank correlation at the chosen
        #: ``alpha`` (diagnostics).
        self.holdout_rank_corr: float = float("nan")

    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return int(
            self.linear.size + self.w1.size + self.b1.size + self.w2.size
        )

    def is_stale(self, teacher) -> bool:
        """True when the teacher's weights moved since distillation."""
        return int(teacher.network.version) != self.teacher_version

    def reset_query_count(self) -> None:
        self.query_count = 0

    # ------------------------------------------------------------------
    def _features(
        self, pairs: Sequence[Tuple[Workload, Mapping]]
    ) -> np.ndarray:
        """Uncentered compact features, ``(N, feature_dim)``."""
        encoded = self._embedding.encode_batch(pairs)
        count = len(pairs)
        per_device_model = encoded.sum(axis=2).reshape(count, -1)
        per_device = encoded.sum(axis=(2, 3))
        active_cells = (encoded > 0).sum(axis=(2, 3))
        static = np.array(
            [[self._cost_model.estimate(workload, mapping)]
             for workload, mapping in pairs]
        )
        table = self._cost_model.latency_table
        devices = self.num_devices
        structure = np.empty((count, 2 * devices + 2))
        for index, (workload, mapping) in enumerate(pairs):
            loads = np.zeros(devices)
            stages = 0
            for model, row in zip(workload.models, mapping.assignments):
                assigned = np.asarray(row)
                stages += 1 + int(np.sum(np.diff(assigned) != 0))
                layer_latency = table.tables[model.name]
                for device in range(devices):
                    mask = assigned == device
                    if mask.any():
                        loads[device] += float(
                            layer_latency[device][mask].sum()
                        )
            structure[index, :devices] = loads
            structure[index, devices : 2 * devices] = np.sort(loads)[::-1]
            structure[index, 2 * devices] = loads.std()
            structure[index, 2 * devices + 1] = stages
        return np.concatenate(
            [per_device_model, per_device, active_cells, static, structure],
            axis=1,
        )

    def _raw_scores(self, centered: np.ndarray) -> np.ndarray:
        normalized = centered / self.feature_scale
        linear = normalized @ self.linear
        if self.alpha == 0.0:
            return linear
        hidden = np.tanh(normalized @ self.w1 + self.b1)
        return linear + self.alpha * (hidden @ self.w2)[:, 0]

    def score_candidates(
        self, workload: Workload, mappings: Sequence[Mapping]
    ) -> np.ndarray:
        """Centered proxy scores for one workload's candidate batch.

        Features are centered over the batch (the same centering the
        model trained under), so scores only order candidates *within*
        this batch; ``score * reward_scale`` approximates the
        candidate's reward deviation from the batch mean.
        """
        features = self._features(
            [(workload, mapping) for mapping in mappings]
        )
        centered = features - features.mean(axis=0)
        self.query_count += len(mappings)
        return self._raw_scores(centered)

    # ------------------------------------------------------------------
    def fit(
        self,
        groups: Sequence[Tuple[Workload, Sequence[Mapping]]],
        targets: np.ndarray,
    ) -> float:
        """Distill from per-mix groups of teacher rewards.

        ``targets`` aligns with ``groups`` flattened in order.  Ridge
        fits the linear path in closed form over every mix; the tanh
        head trains (Adam + MSE + weight decay) on the *training*
        mixes' residuals; ``alpha`` is then picked by mean within-mix
        rank correlation on the held-out mixes, with 0.0 in the grid
        so the nonlinear head only survives when it helps.
        """
        policy = self.policy
        slices: List[Tuple[int, int]] = []
        start = 0
        features: List[np.ndarray] = []
        for workload, mappings in groups:
            block = self._features(
                [(workload, mapping) for mapping in mappings]
            )
            features.append(block - block.mean(axis=0))
            slices.append((start, start + len(mappings)))
            start += len(mappings)
        centered = np.concatenate(features, axis=0)
        rewards = np.asarray(targets, dtype=float)
        if rewards.shape != (start,):
            raise ValueError(
                f"targets shape {rewards.shape} != ({start},)"
            )
        deviations = rewards.copy()
        for lo, hi in slices:
            deviations[lo:hi] -= rewards[lo:hi].mean()
        self.feature_scale = centered.std(axis=0) + 1e-9
        self.reward_scale = float(deviations.std() + 1e-9)
        x = centered / self.feature_scale
        y = deviations / self.reward_scale

        gram = x.T @ x + policy.ridge_lambda * np.eye(self.feature_dim)
        self.linear = np.linalg.solve(gram, x.T @ y)

        holdout = slices[len(slices) - policy.holdout_mixes:]
        train_hi = holdout[0][0]
        residual = y - x @ self.linear
        self.train_loss = self._fit_head(
            x[:train_hi], residual[:train_hi]
        )

        hidden = np.tanh(x @ self.w1 + self.b1)
        head = (hidden @ self.w2)[:, 0]
        best_alpha, best_corr = 0.0, -np.inf
        for alpha in _ALPHA_GRID:
            scores = x @ self.linear + alpha * head
            corr = float(
                np.mean(
                    [
                        _rank_corr(y[lo:hi], scores[lo:hi])
                        for lo, hi in holdout
                    ]
                )
            )
            if corr > best_corr:
                best_alpha, best_corr = alpha, corr
        self.alpha = best_alpha
        self.holdout_rank_corr = best_corr
        return self.train_loss

    def _fit_head(self, x: np.ndarray, residual: np.ndarray) -> float:
        """Adam + MSE + weight decay on the linear path's residual."""
        policy = self.policy
        rng = np.random.default_rng(policy.seed + 1)
        params = [self.w1, self.b1, self.w2]
        decays = [policy.weight_decay, 0.0, policy.weight_decay]
        first = [np.zeros_like(p) for p in params]
        second = [np.zeros_like(p) for p in params]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        count = x.shape[0]
        target = residual[:, None]
        loss = float("nan")
        for _epoch in range(policy.epochs):
            order = rng.permutation(count)
            for begin in range(0, count, policy.batch_size):
                batch = order[begin : begin + policy.batch_size]
                xb = x[batch]
                yb = target[batch]
                hidden = np.tanh(xb @ self.w1 + self.b1)
                outputs = hidden @ self.w2
                error = outputs - yb
                loss = float(np.mean(error**2))
                grad_out = (2.0 / error.size) * error
                grad_w2 = hidden.T @ grad_out
                grad_hidden = (grad_out @ self.w2.T) * (1.0 - hidden**2)
                grad_w1 = xb.T @ grad_hidden
                grad_b1 = grad_hidden.sum(axis=0)
                step += 1
                grads = [grad_w1, grad_b1, grad_w2]
                for index, (param, grad, decay) in enumerate(
                    zip(params, grads, decays)
                ):
                    grad = grad + decay * param
                    first[index] = beta1 * first[index] + (1 - beta1) * grad
                    second[index] = (
                        beta2 * second[index] + (1 - beta2) * grad**2
                    )
                    hat1 = first[index] / (1 - beta1**step)
                    hat2 = second[index] / (1 - beta2**step)
                    param -= (
                        policy.learning_rate * hat1 / (np.sqrt(hat2) + eps)
                    )
        return loss


def _rank_corr(truth: np.ndarray, scores: np.ndarray) -> float:
    """Spearman rank correlation (0.0 when either side is constant)."""
    if len(truth) < 2:
        return 0.0
    rank_t = np.empty(len(truth))
    rank_t[np.argsort(truth, kind="stable")] = np.arange(len(truth))
    rank_s = np.empty(len(scores))
    rank_s[np.argsort(scores, kind="stable")] = np.arange(len(scores))
    if rank_t.std() == 0.0 or rank_s.std() == 0.0:
        return 0.0
    return float(np.corrcoef(rank_t, rank_s)[0, 1])


def distill_estimator(
    teacher,
    groups: Sequence[Tuple[Workload, Sequence[Mapping]]],
    cost_model,
    policy: Optional[FastPathPolicy] = None,
) -> DistilledEstimator:
    """Train a :class:`DistilledEstimator` from teacher predictions.

    The teacher scores every ``(mix, mapping)`` pair once (these
    forwards are the one-time distillation bill -- they show up in the
    teacher's ``query_count``); the student regresses the per-mix
    *deviations* of the paper's mean-throughput reward.  Deterministic
    for a fixed ``(groups, policy)``.
    """
    if not groups:
        raise ValueError("distillation needs at least one mix group")
    policy = policy or FastPathPolicy()
    student = DistilledEstimator(teacher, cost_model, policy)
    pairs = [
        (workload, mapping)
        for workload, mappings in groups
        for mapping in mappings
    ]
    targets = teacher.predict_throughput_batch(pairs).mean(axis=1)
    student.fit(groups, targets)
    # Distillation itself must not mark the student stale: record the
    # teacher version after the teacher's forwards settled.
    student.teacher_version = int(teacher.network.version)
    return student
