"""Training loop with top-1/top-5 metrics.

Used by the Fig. 3 / Fig. 4 / Fig. 12 accuracy experiments, which
retrain the same architecture under different layer orderings (original
vs reordered vs all-conv), pooling functions, and quantization levels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader
from repro.nn import functional as F
from repro.nn.layers import Module
from repro.nn.optim import Adam, Optimizer, SGD
from repro.nn.tensor import Tensor, no_grad
from repro.obs.numerics import NumericsCollector
from repro.obs.tracer import get_tracer

#: SGD momentum of every fit
MOMENTUM = 0.9
#: weight decay of every fit (SGD and Adam)
WEIGHT_DECAY = 1e-4


@dataclass
class TrainConfig:
    """Hyperparameters for :class:`Trainer`."""

    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-2
    optimizer: str = "sgd"  # "sgd" | "adam"
    seed: int = 0


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_top1: float
    val_top5: float
    #: training throughput over the train loop only (excludes validation)
    samples_per_sec: float = 0.0


def _param_dtype(model: Module) -> np.dtype:
    """The dtype of ``model``'s parameters, which its batches are cast to.

    A model without parameters takes float64 batches.
    """
    for p in model.parameters():
        return p.dtype
    return np.dtype(np.float64)


def evaluate(model: Module, dataset: ArrayDataset, batch_size: int = 128):
    """Return (loss, top1, top5) of ``model`` on ``dataset``.

    Batches are cast to the model's parameter dtype.
    """
    model.eval()
    losses: List[float] = []
    logits_all: List[np.ndarray] = []
    labels_all: List[np.ndarray] = []
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    dtype = _param_dtype(model)
    with no_grad():
        for images, labels in loader:
            logits = model(Tensor(images.astype(dtype, copy=False)))
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

    A fit runs every configured epoch and then restores the parameters
    of its own best-validation-top-1 epoch (:attr:`best_top1`,
    :attr:`best_state`), so a later fit keeps its training even when an
    earlier fit scored higher.  The per-epoch record of every fit is
    :attr:`history` and, with tracing on (``--obs``), each
    ``train.epoch`` span's scalars.

    Each batch is cast to the model's parameter dtype (a no-op for the
    default float64; see :meth:`Module.to_dtype
    <repro.nn.layers.Module.to_dtype>`).  A fit holds one step's
    autograd graph at a time: the step drops its logits and loss once
    the loss is read, so reference counting frees the graph before the
    next batch's forward starts.

    Pass a :class:`repro.obs.numerics.NumericsCollector` as
    ``numerics`` to watch training for NaN/inf: the collector is enabled
    for the duration of :meth:`fit` (quantized layers report their clip
    counters into it), every anomaly is stamped with the (epoch, batch)
    position, and each batch loss runs through the watchdog — with policy ``"raise"``, a diverging run stops
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
        numerics: Optional[NumericsCollector] = None,
    ) -> None:
        self.model = model
        self.train_set = train_set
        self.val_set = val_set
        self.numerics = numerics
        self.config = config or TrainConfig()
        cfg = self.config
        if cfg.optimizer == "sgd":
            self.optimizer: Optimizer = SGD(
                model.parameters(),
                lr=cfg.lr,
                momentum=MOMENTUM,
                weight_decay=WEIGHT_DECAY,
            )
        elif cfg.optimizer == "adam":
            self.optimizer = Adam(model.parameters(), lr=cfg.lr, weight_decay=WEIGHT_DECAY)
        else:
            raise ValueError(f"unknown optimizer {cfg.optimizer!r}")
        self.history: List[EpochStats] = []
        self.best_top1 = 0.0
        self.best_state = None

    def fit(self) -> List[EpochStats]:
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
        )
        dtype = _param_dtype(self.model)
        self.best_top1, self.best_state = 0.0, None
        with tracer.span("train.fit", category="train", epochs=cfg.epochs):
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
                            logits = self.model(Tensor(images.astype(dtype, copy=False)))
                            loss = F.cross_entropy(logits, labels)
                            self.optimizer.zero_grad()
                            loss.backward()
                            self.optimizer.step()
                        batch_loss = loss.item()
                        # frees this step's graph before the next forward
                        del logits, loss
                        if watch is not None:
                            watch.check_value("train", "loss", batch_loss)
                        total_loss += batch_loss * len(labels)
                        total_n += len(labels)
                    train_wall = time.perf_counter() - epoch_start
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
                if top1 > self.best_top1:
                    self.best_top1 = top1
                    self.best_state = self.model.state_dict()
        if self.best_state is not None:
            self.model.load_state_dict(self.best_state)
        return self.history
