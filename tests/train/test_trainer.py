"""Training harness: learning happens, metrics work, the best epoch's
parameters come back, and a fit holds one step's autograd graph at a
time."""

import gc
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from repro import build_model, mlcnn_pipeline
from repro.data import SyntheticImageConfig, make_synth_cifar, train_val_split
from repro.nn import AvgPool2d, Conv2d, Flatten, Linear, ReLU, Sequential
from repro.nn import functional as F
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor
from repro.train import TrainConfig, Trainer, evaluate
from repro.train.trainer import MOMENTUM, WEIGHT_DECAY


def small_model(num_classes=4, rng=None):
    rng = rng or np.random.default_rng(0)
    return Sequential(
        Conv2d(3, 8, 3, padding=1, rng=rng),
        ReLU(),
        AvgPool2d(2),
        Conv2d(8, 12, 3, padding=1, rng=rng),
        ReLU(),
        AvgPool2d(2),
        Flatten(),
        Linear(12 * 4 * 4, num_classes, rng=rng),
    )


class TestTrainer:
    def test_training_beats_chance(self, tiny_split):
        train_set, val_set = tiny_split
        trainer = Trainer(
            small_model(), train_set, val_set, TrainConfig(epochs=8, batch_size=16, lr=0.05)
        )
        trainer.fit()
        assert trainer.best_top1 > 0.5  # chance = 0.25 on 4 classes

    def test_loss_decreases(self, tiny_split):
        train_set, val_set = tiny_split
        trainer = Trainer(
            small_model(), train_set, val_set, TrainConfig(epochs=6, batch_size=16, lr=0.05)
        )
        hist = trainer.fit()
        assert hist[-1].train_loss < hist[0].train_loss

    def test_history_length_and_fields(self, tiny_split):
        train_set, val_set = tiny_split
        trainer = Trainer(
            small_model(), train_set, val_set, TrainConfig(epochs=3, batch_size=16)
        )
        hist = trainer.fit()
        assert len(hist) == 3
        for i, h in enumerate(hist):
            assert h.epoch == i
            assert 0.0 <= h.val_top1 <= h.val_top5 <= 1.0

    def test_best_state_restored(self, tiny_split):
        train_set, val_set = tiny_split
        trainer = Trainer(
            small_model(), train_set, val_set, TrainConfig(epochs=5, batch_size=16, lr=0.05)
        )
        trainer.fit()
        _, top1, _ = evaluate(trainer.model, val_set)
        assert np.isclose(top1, trainer.best_top1)

    def test_adam_option(self, tiny_split):
        train_set, val_set = tiny_split
        trainer = Trainer(
            small_model(),
            train_set,
            val_set,
            TrainConfig(epochs=2, batch_size=16, optimizer="adam", lr=1e-3),
        )
        trainer.fit()

    def test_unknown_optimizer_raises(self, tiny_split):
        train_set, val_set = tiny_split
        with pytest.raises(ValueError):
            Trainer(small_model(), train_set, val_set, TrainConfig(optimizer="lbfgs"))



def _fit(split, **config):
    trainer = Trainer(small_model(), *split, TrainConfig(epochs=2, batch_size=16, **config))
    trainer.fit()
    return trainer


class TestTrainerSettings:
    def test_sgd_takes_the_module_momentum_and_weight_decay(self, tiny_split):
        opt = Trainer(small_model(), *tiny_split, TrainConfig(lr=0.05)).optimizer
        assert isinstance(opt, SGD)
        assert (opt.lr, opt.momentum, opt.weight_decay, opt.nesterov) == (
            0.05, MOMENTUM, WEIGHT_DECAY, False,
        )

    def test_adam_takes_the_module_weight_decay(self, tiny_split):
        opt = Trainer(
            small_model(), *tiny_split, TrainConfig(lr=2e-3, optimizer="adam")
        ).optimizer
        assert isinstance(opt, Adam)
        assert (opt.lr, opt.beta1, opt.beta2, opt.weight_decay) == (
            2e-3, 0.9, 0.999, WEIGHT_DECAY,
        )

    @pytest.mark.parametrize("optimizer,lr", [("sgd", 0.05), ("adam", 2e-3)])
    def test_fit_is_reproducible_given_seed(self, tiny_split, optimizer, lr):
        """Same seed, same fit: history and parameters bit for bit."""
        a = _fit(tiny_split, optimizer=optimizer, lr=lr, seed=3)
        b = _fit(tiny_split, optimizer=optimizer, lr=lr, seed=3)
        for ha, hb in zip(a.history, b.history):
            assert (ha.train_loss, ha.val_loss, ha.val_top1, ha.val_top5) == (
                hb.train_loss, hb.val_loss, hb.val_top1, hb.val_top5,
            )
        for pa, pb in zip(a.model.parameters(), b.model.parameters()):
            assert pa.data.tobytes() == pb.data.tobytes()

    def test_seed_sets_the_batch_order(self, tiny_split):
        a = _fit(tiny_split, lr=0.05, seed=3)
        b = _fit(tiny_split, lr=0.05, seed=4)
        assert a.history[0].train_loss != b.history[0].train_loss

    def test_best_state_spans_every_fit(self, tiny_split):
        """After two fits the model holds the best epoch of either."""
        train_set, val_set = tiny_split
        trainer = Trainer(
            small_model(), train_set, val_set, TrainConfig(epochs=3, batch_size=16, lr=0.05)
        )
        trainer.fit()
        hist = trainer.fit()
        assert len(hist) == 6
        assert trainer.best_top1 == max(h.val_top1 for h in hist)
        for name, p in trainer.model.named_parameters():
            np.testing.assert_array_equal(p.data, trainer.best_state[name])
        assert evaluate(trainer.model, val_set)[1] == trainer.best_top1


class TestEpochTiming:
    def test_throughput_field(self, tiny_split, enabled_tracer):
        train_set, val_set = tiny_split
        trainer = Trainer(
            small_model(), train_set, val_set, TrainConfig(epochs=2, batch_size=16)
        )
        hist = trainer.fit()
        spans = [ev for ev in enabled_tracer.events if ev.name == "train.epoch"]
        assert len(spans) == len(hist) == 2
        for h, span in zip(hist, spans):
            assert h.samples_per_sec > 0.0
            # throughput is per train-loop second, and the train loop is
            # a slice of the epoch span (which also holds validation)
            assert h.samples_per_sec >= len(train_set) / (span.dur_us * 1e-6)


class TestTrainerTracing:
    def test_fit_records_spans_and_metric_series(self, tiny_split, enabled_tracer):
        train_set, val_set = tiny_split
        trainer = Trainer(
            small_model(), train_set, val_set, TrainConfig(epochs=2, batch_size=16)
        )
        history = trainer.fit()
        events = enabled_tracer.events
        names = [ev.name for ev in events]
        assert names.count("train.fit") == 1
        assert names.count("train.evaluate") == 2
        # each epoch span carries the scalars of the EpochStats it produced
        epochs = [ev for ev in events if ev.name == "train.epoch"]
        assert [ev.attrs for ev in epochs] == [asdict(stats) for stats in history]
        samples = [ev.attrs["samples"] for ev in events if ev.name == "train.batch"]
        assert sum(samples) == 2 * len(train_set)

    def test_fit_untraced_when_disabled(self, tiny_split):
        from repro.obs import get_tracer

        train_set, val_set = tiny_split
        trainer = Trainer(
            small_model(), train_set, val_set, TrainConfig(epochs=1, batch_size=16)
        )
        before = len(get_tracer().events)
        trainer.fit()
        assert len(get_tracer().events) == before


@pytest.fixture(scope="class")
def fit_memory():
    """Traced memory of 20 fits of compiled lenet5: the reading after
    each fit, each fit's peak, and the peak of one training step alone
    (all three at batch size 16)."""
    data = make_synth_cifar(
        SyntheticImageConfig(num_classes=4, samples_per_class=16, max_shift=2, seed=7)
    )
    train_set, val_set = train_val_split(data, val_fraction=0.25, seed=7)
    model = mlcnn_pipeline().run(build_model("lenet5", num_classes=4))[0]
    trainer = Trainer(
        model, train_set, val_set,
        TrainConfig(epochs=1, batch_size=16, optimizer="adam", lr=1e-3),
    )
    trainer.fit()
    gc.collect()
    tracemalloc.start()
    try:
        model.train()
        x, y = Tensor(train_set.images[:16]), train_set.labels[:16]
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss = F.cross_entropy(model(x), y)
        trainer.optimizer.zero_grad()
        loss.backward()
        trainer.optimizer.step()
        del loss
        step_peak = tracemalloc.get_traced_memory()[1] - base
        current, fit_peaks = [], []
        for _ in range(20):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            trainer.fit()
            now, peak = tracemalloc.get_traced_memory()
            current.append(now)
            fit_peaks.append(peak - base)
    finally:
        tracemalloc.stop()
    return current, fit_peaks, step_peak


class TestGraphMemory:
    def test_traced_memory_does_not_grow_across_fits(self, fit_memory):
        """Graphs are acyclic, so reference counting frees each one:
        nothing accumulates from fit 2 to fit 20."""
        current, _, _ = fit_memory
        assert abs(current[19] - current[1]) <= 0.5e6, (current[1], current[19])

    def test_fits_hold_one_graph_at_a_time(self, fit_memory):
        """No fit's traced peak exceeds one training step's by more than
        25%: each step's graph is freed before the next batch's forward."""
        _, fit_peaks, step_peak = fit_memory
        assert max(fit_peaks) <= 1.25 * step_peak, (max(fit_peaks), step_peak)


class TestEvaluate:
    def test_evaluate_returns_sane_metrics(self, tiny_split):
        train_set, val_set = tiny_split
        loss, top1, top5 = evaluate(small_model(), val_set)
        assert loss > 0
        assert 0.0 <= top1 <= top5 <= 1.0

    def test_evaluate_sets_eval_mode(self, tiny_split):
        _, val_set = tiny_split
        model = small_model()
        model.train()
        evaluate(model, val_set)
        assert not model.training

    def test_deterministic(self, tiny_split):
        _, val_set = tiny_split
        model = small_model()
        a = evaluate(model, val_set)
        b = evaluate(model, val_set)
        assert a == b


class TestTrainerNumerics:
    def test_collector_enabled_during_fit_and_context_stamped(self, tiny_split):
        from repro.obs.numerics import NumericsCollector

        train_set, val_set = tiny_split
        col = NumericsCollector(watchdog="record")
        trainer = Trainer(
            small_model(), train_set, val_set,
            TrainConfig(epochs=1, batch_size=16), numerics=col,
        )
        trainer.fit()
        assert not col.enabled  # disabled again after fit
        assert col.epoch == 0  # context was stamped during the run
        assert col.batch is not None

    def test_raise_policy_stops_on_injected_nan(self, tiny_split):
        """A NaN planted in the weights turns into a NumericsError naming
        the offending layer and the training position."""
        from repro.obs import instrument_model
        from repro.obs.numerics import NumericsCollector, NumericsError

        train_set, val_set = tiny_split
        model = small_model()
        col = NumericsCollector(watchdog="raise")
        instrument_model(model, numerics=col)
        model[0].weight.data[0, 0, 0, 0] = np.nan
        trainer = Trainer(
            model, train_set, val_set,
            TrainConfig(epochs=1, batch_size=16), numerics=col,
        )
        with pytest.raises(NumericsError) as err:
            trainer.fit()
        assert err.value.layer == "0"  # the first conv of the Sequential
        assert "batch 0" in str(err.value)
        assert not col.enabled  # cleaned up despite the exception

    def test_loss_watchdog_without_instrumentation(self, tiny_split):
        """Even uninstrumented, a non-finite loss trips the watchdog."""
        from repro.obs.numerics import NumericsCollector, NumericsError

        train_set, val_set = tiny_split
        model = small_model()
        model[0].weight.data[:] = np.nan
        col = NumericsCollector(watchdog="raise")
        trainer = Trainer(
            model, train_set, val_set,
            TrainConfig(epochs=1, batch_size=16), numerics=col,
        )
        with pytest.raises(NumericsError) as err:
            trainer.fit()
        assert "train.loss" in str(err.value)

    def test_record_policy_completes_and_records(self, tiny_split):
        from repro.obs import instrument_model
        from repro.obs.numerics import NumericsCollector

        train_set, val_set = tiny_split
        model = small_model()
        col = NumericsCollector(watchdog="record")
        instrument_model(model, numerics=col)
        model[0].weight.data[0, 0, 0, 0] = np.nan
        trainer = Trainer(
            model, train_set, val_set,
            TrainConfig(epochs=1, batch_size=16), numerics=col,
        )
        trainer.fit()  # must not raise
        assert col.first_anomaly is not None
        assert col.first_anomaly["epoch"] == 0

    def test_healthy_run_records_no_anomaly(self, tiny_split):
        from repro.obs.numerics import NumericsCollector

        train_set, val_set = tiny_split
        col = NumericsCollector(watchdog="raise")
        trainer = Trainer(
            small_model(), train_set, val_set,
            TrainConfig(epochs=1, batch_size=16), numerics=col,
        )
        trainer.fit()  # raise policy, healthy run: no error
        assert col.first_anomaly is None
