"""Training loop with top-1/top-5 metrics.

Used by the Fig. 3 / Fig. 4 / Fig. 12 accuracy experiments, which
retrain the same architecture under different layer orderings (original
vs reordered vs all-conv), pooling functions, and quantization levels.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader
from repro.nn import functional as F
from repro.nn.layers import Module
from repro.nn.optim import Adam, LRSchedule, Optimizer, SGD
from repro.nn.tensor import Tensor, no_grad
from repro.obs.numerics import NumericsCollector
from repro.obs.tracer import get_tracer

logger = logging.getLogger("repro.train")

#: the one fallback handler this module ever attaches (see
#: :func:`_ensure_train_logging`)
_LOG_HANDLER: Optional[logging.Handler] = None


def _ensure_train_logging() -> None:
    """Give verbose training logs exactly one output, once per process.

    If the application configured logging (handlers on the root logger
    or on ``repro.train``), respect it and do nothing.  Otherwise
    attach a single fallback ``StreamHandler`` and stop propagation —
    guarded by a module-level sentinel so repeated ``fit()`` calls in
    one process (tests, sweeps) never stack handlers or double-emit.
    """
    global _LOG_HANDLER
    if _LOG_HANDLER is not None:
        if _LOG_HANDLER in logger.handlers:
            return
        _LOG_HANDLER = None  # removed externally; re-evaluate
    if logger.handlers or logging.getLogger().handlers:
        return
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    if logger.level == logging.NOTSET:
        logger.setLevel(logging.INFO)
    logger.propagate = False
    _LOG_HANDLER = handler


@dataclass
class TrainConfig:
    """Hyperparameters for :class:`Trainer`."""

    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-2
    momentum: float = 0.9
    weight_decay: float = 1e-4
    optimizer: str = "sgd"  # "sgd" | "adam"
    seed: int = 0
    #: stop early when validation top-1 has not improved for this many
    #: epochs (0 disables early stopping)
    patience: int = 0
    verbose: bool = False


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_top1: float
    val_top5: float
    #: wall time of the whole epoch (train loop + validation), seconds
    wall_s: float = 0.0
    #: training throughput over the train loop only (excludes validation)
    samples_per_sec: float = 0.0


def evaluate(model: Module, dataset: ArrayDataset, batch_size: int = 128):
    """Return (loss, top1, top5) of ``model`` on ``dataset``."""
    model.eval()
    losses: List[float] = []
    logits_all: List[np.ndarray] = []
    labels_all: List[np.ndarray] = []
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    with no_grad():
        for images, labels in loader:
            logits = model(Tensor(images))
            losses.append(F.cross_entropy(logits, labels).item() * len(labels))
            logits_all.append(logits.data)
            labels_all.append(labels)
    logits_np = np.concatenate(logits_all)
    labels_np = np.concatenate(labels_all)
    loss = float(np.sum(losses) / len(dataset))
    top1 = F.accuracy_topk(logits_np, labels_np, k=1)
    top5 = F.accuracy_topk(logits_np, labels_np, k=min(5, logits_np.shape[-1]))
    return loss, top1, top5


class Trainer:
    """Fit a model on a dataset; records per-epoch statistics.

    Pass a :class:`repro.obs.numerics.NumericsCollector` as
    ``numerics`` to watch training health: the collector is enabled for
    the duration of :meth:`fit`, every anomaly is stamped with the
    (epoch, batch) position, and each batch loss runs through the
    NaN/inf watchdog — with policy ``"raise"``, a diverging run stops
    at the first non-finite value, naming the offending layer (when the
    model is instrumented via
    :func:`repro.obs.instrument_model(..., numerics=...)
    <repro.obs.instrument.instrument_model>`) or the loss itself.
    """

    def __init__(
        self,
        model: Module,
        train_set: ArrayDataset,
        val_set: ArrayDataset,
        config: Optional[TrainConfig] = None,
        schedule_factory: Optional[Callable[[Optimizer], LRSchedule]] = None,
        transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        numerics: Optional[NumericsCollector] = None,
    ) -> None:
        self.model = model
        self.train_set = train_set
        self.val_set = val_set
        self.transform = transform
        self.numerics = numerics
        self.config = config or TrainConfig()
        cfg = self.config
        if cfg.optimizer == "sgd":
            self.optimizer: Optimizer = SGD(
                model.parameters(),
                lr=cfg.lr,
                momentum=cfg.momentum,
                weight_decay=cfg.weight_decay,
            )
        elif cfg.optimizer == "adam":
            self.optimizer = Adam(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
        else:
            raise ValueError(f"unknown optimizer {cfg.optimizer!r}")
        self.schedule = schedule_factory(self.optimizer) if schedule_factory else None
        self.history: List[EpochStats] = []
        self.best_top1 = 0.0
        self.best_state = None

    def fit(self) -> List[EpochStats]:
        cfg = self.config
        if cfg.verbose:
            _ensure_train_logging()
        watch = self.numerics
        owns_watch = watch is not None and not watch.enabled
        if owns_watch:
            watch.enable()
        try:
            return self._fit_loop()
        finally:
            if owns_watch:
                watch.disable()

    def _fit_loop(self) -> List[EpochStats]:
        cfg = self.config
        watch = self.numerics
        # One trace is the whole training record: the ``train.batch``
        # spans time the batches (from one batch's end to the next, so
        # the data-loader wait counts) and each ``train.epoch`` span
        # carries its EpochStats scalars.
        tracer = get_tracer()
        loader = DataLoader(
            self.train_set,
            batch_size=cfg.batch_size,
            shuffle=True,
            seed=cfg.seed,
            transform=self.transform,
        )
        stale = 0
        with tracer.span("train.fit", category="train", epochs=cfg.epochs) as fit_span:
            for epoch in range(cfg.epochs):
                with tracer.span(
                    "train.epoch", category="train", epoch=epoch
                ) as epoch_span:
                    epoch_start = time.perf_counter()
                    self.model.train()
                    total_loss = 0.0
                    total_n = 0
                    for batch_idx, (images, labels) in enumerate(loader):
                        if watch is not None:
                            watch.set_context(epoch=epoch, batch=batch_idx)
                        with tracer.span(
                            "train.batch", category="train", samples=len(labels)
                        ):
                            logits = self.model(Tensor(images))
                            loss = F.cross_entropy(logits, labels)
                            self.optimizer.zero_grad()
                            loss.backward()
                            self.optimizer.step()
                        batch_loss = loss.item()
                        if watch is not None:
                            watch.check_value("train", "loss", batch_loss)
                        total_loss += batch_loss * len(labels)
                        total_n += len(labels)
                    train_wall = time.perf_counter() - epoch_start
                    if self.schedule is not None:
                        self.schedule.step()
                    with tracer.span("train.evaluate", category="train"):
                        val_loss, top1, top5 = evaluate(
                            self.model, self.val_set, cfg.batch_size
                        )
                    stats = EpochStats(
                        epoch,
                        total_loss / max(total_n, 1),
                        val_loss,
                        top1,
                        top5,
                        wall_s=time.perf_counter() - epoch_start,
                        samples_per_sec=total_n / max(train_wall, 1e-12),
                    )
                    self.history.append(stats)
                    epoch_span.set(
                        train_loss=stats.train_loss,
                        val_loss=val_loss,
                        val_top1=top1,
                        val_top5=top5,
                        samples_per_sec=stats.samples_per_sec,
                    )
                if cfg.verbose:
                    logger.info(
                        "epoch %3d  train_loss %.4f  val_loss %.4f  top1 %.3f  "
                        "top5 %.3f  %.1f samples/s  (%.2fs)",
                        epoch,
                        stats.train_loss,
                        val_loss,
                        top1,
                        top5,
                        stats.samples_per_sec,
                        stats.wall_s,
                    )
                if top1 > self.best_top1:
                    self.best_top1 = top1
                    self.best_state = self.model.state_dict()
                    stale = 0
                else:
                    stale += 1
                    if cfg.patience and stale >= cfg.patience:
                        break
            fit_span.set(epochs_run=len(self.history))
        if self.best_state is not None:
            self.model.load_state_dict(self.best_state)
        return self.history
