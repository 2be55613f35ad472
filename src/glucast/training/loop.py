"""Two-phase adversarial transfer training with early stopping.

Phase one pools every source patient's training samples, attaches patient
labels, and minimizes MSE + lam * cross-entropy while the classifier
gradient arrives sign-flipped at the shared representation. Phase two
finetunes on the target patient alone (no adversary, smaller learning rate,
shorter patience). Both phases monitor pooled validation glucose MSE and
return the best snapshot seen. Everything is seeded: parameter init, batch
shuffling, and therefore the whole trajectory.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ..errors import (
    AT_LEAST_0,
    AT_LEAST_1,
    NON_NEGATIVE,
    POSITIVE,
    TrainingError,
    check_fields,
    tunable,
)
from ..kernel import tape as T
from ..models.wrappers import check_windows, restore, snapshot, untaped_pass
from .adam import AdamState, adam_step
from .loss import cross_entropy, cross_entropy_node, mse_node


@dataclass
class TrainConfig:
    batch_size: int = tunable(50, AT_LEAST_1)
    lr_source: float = tunable(1e-3, POSITIVE)
    lr_finetune: float = tunable(1e-4, POSITIVE)
    patience_source: int = tunable(100, AT_LEAST_1)
    patience_finetune: int = tunable(25, AT_LEAST_1)
    lam: float = tunable(10.0 ** -2.5, NON_NEGATIVE, key="lambda")
    max_epochs: int = tunable(500, AT_LEAST_0)
    seed: int = tunable(0, AT_LEAST_0)

    __post_init__ = check_fields


@dataclass
class EarlyStopState:
    best_loss: float
    best_params: dict
    epochs_since_improvement: int = 0

    def update(self, loss, model) -> bool:
        if loss < self.best_loss:
            self.best_loss = loss
            self.best_params = snapshot(model)
            self.epochs_since_improvement = 0
            return True
        self.epochs_since_improvement += 1
        return False


class History(list):
    """A phase's per-epoch rows (those of history.csv), and the epoch whose
    model the phase kept, with that model's validation MSE. Epoch 0 is the
    initial model, kept when no epoch improved on it."""

    kept_epoch = 0
    kept_valid_mse = float("nan")


@dataclass
class PatientSplits:
    """Standardized training material for one patient."""

    train_x: np.ndarray  # (N, L, r)
    train_y: np.ndarray  # (N,)
    valid_x: np.ndarray
    valid_y: np.ndarray
    patient_id: str = ""


def backward_with_reversal(model, batch_x, batch_y, batch_labels, lam):
    """One combined backward pass.

    Returns (grads, total_loss, mse, ce). The classifier head parameters
    receive +lam * dCE; every parameter upstream of the shared representation
    receives dMSE - lam * dCE, because the cross-entropy branch passes
    through a gradient-reversing identity at that boundary.
    """
    tp = T.Tape()
    arrays = model.param_arrays()
    nodes = {name: T.Node(arr) for name, arr in arrays.items()}
    use_adv = lam > 0 and batch_labels is not None and model.supports_adversary

    outs = model.graph(tp, np.asarray(batch_x, dtype=np.float64), nodes,
                       with_adversary=use_adv)
    total = mse_node(tp, outs["y_hat"], batch_y)
    mse_val = float(total.value)
    ce_val = 0.0
    if use_adv:
        ce = cross_entropy_node(tp, outs["adv_probs"], batch_labels)
        ce_val = float(ce.value)
        total = T.add(total, T.scale(ce, lam, tp), tp)
    if model.l2_weight > 0:
        penalty = None
        for name, node in nodes.items():
            if name.endswith("bias") or name.endswith("_b"):
                continue
            term = T.sum_all(T.mul(node, node, tp), tp)
            penalty = term if penalty is None else T.add(penalty, term, tp)
        total = T.add(total, T.scale(penalty, model.l2_weight, tp), tp)

    tp.backward(total)
    grads = {name: (node.grad if node.grad is not None else np.zeros_like(node.value))
             for name, node in nodes.items()}
    return grads, float(total.value), mse_val, ce_val


def _validation_scores(model, valid_x, valid_y, valid_labels, lam):
    """Validation MSE, and the adversary's cross-entropy where it trains (nan
    otherwise), from one untaped pass over the windows."""
    use_adv = lam > 0 and valid_labels is not None and model.supports_adversary
    outs = untaped_pass(model, valid_x, ("y_hat", "adv_probs") if use_adv else ("y_hat",))
    v_mse = float(np.mean((outs["y_hat"] - valid_y) ** 2))
    v_ce = cross_entropy(valid_labels, outs["adv_probs"]) if use_adv else float("nan")
    return v_mse, v_ce


def _optimize(model, train_x, train_y, train_labels, valid_x, valid_y,
              valid_labels, lr, patience, lam, cfg: TrainConfig, phase):
    n = train_y.shape[0]
    if n == 0 or valid_y.shape[0] == 0:
        raise ValueError(f"{phase}: empty training or validation set")
    check_windows(model, train_x)
    check_windows(model, valid_x)

    rng = np.random.default_rng(cfg.seed)
    params = model.param_arrays()
    opt = AdamState.init(params)
    v_mse, _ = _validation_scores(model, valid_x, valid_y, None, 0.0)
    stop = EarlyStopState(best_loss=v_mse, best_params=snapshot(model))
    history = History()

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        batch_losses = []
        try:
            for lo in range(0, n, cfg.batch_size):
                idx = order[lo:lo + cfg.batch_size]
                labels = train_labels[idx] if train_labels is not None else None
                grads, total, _, _ = backward_with_reversal(
                    model, train_x[idx], train_y[idx], labels, lam)
                if not np.isfinite(total):
                    raise FloatingPointError(f"training loss {total}")
                adam_step(params, grads, opt, lr)
                batch_losses.append(total)
            v_mse, v_ce = _validation_scores(model, valid_x, valid_y, valid_labels, lam)
        except FloatingPointError as exc:  # a loss or a softmax of non-finite values
            raise TrainingError(f"{phase}: loss diverged at epoch {epoch}") from exc
        history.append({"epoch": epoch, "train_loss": float(np.mean(batch_losses)),
                        "valid_mse": v_mse, "valid_ce": v_ce, "lr": lr,
                        "phase": phase})
        if stop.update(v_mse, model):
            history.kept_epoch = epoch
        if stop.epochs_since_improvement >= patience:
            break

    restore(model, stop.best_params)
    history.kept_valid_mse = stop.best_loss
    return history


def train_source(model, sources, cfg: TrainConfig):
    """Pooled multi-source phase with the adversarial patient classifier.

    sources: list of PatientSplits, one per source patient, index = class
    label. The model is updated in place to the best snapshot; the phase's
    ``History`` is returned.
    """
    if len(sources) < 2:
        raise ValueError("source training needs at least 2 source patients")
    train_x = np.concatenate([s.train_x for s in sources])
    train_y = np.concatenate([s.train_y for s in sources])
    train_labels = np.concatenate(
        [np.full(s.train_y.shape[0], i, dtype=np.intp) for i, s in enumerate(sources)])
    valid_x = np.concatenate([s.valid_x for s in sources])
    valid_y = np.concatenate([s.valid_y for s in sources])
    valid_labels = np.concatenate(
        [np.full(s.valid_y.shape[0], i, dtype=np.intp) for i, s in enumerate(sources)])

    lam = cfg.lam if model.supports_adversary else 0.0
    return _optimize(model, train_x, train_y, train_labels, valid_x, valid_y,
                     valid_labels, lr=cfg.lr_source, patience=cfg.patience_source,
                     lam=lam, cfg=cfg, phase="source")


def finetune(model, target: PatientSplits, cfg: TrainConfig):
    """Target-patient phase: no adversary, reduced rate, short patience. The
    model is updated in place to the best snapshot; the phase's ``History``
    is returned."""
    return _optimize(model, target.train_x, target.train_y, None,
                     target.valid_x, target.valid_y, None,
                     lr=cfg.lr_finetune, patience=cfg.patience_finetune,
                     lam=0.0, cfg=cfg, phase="finetune")


def write_history_csv(history, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["epoch", "train_loss", "valid_mse", "valid_ce", "lr", "phase"])
        writer.writeheader()
        for row in history:
            writer.writerow(row)
