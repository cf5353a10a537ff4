"""Training harness: learning happens, metrics and early stopping work."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.nn import AvgPool2d, Conv2d, Flatten, Linear, ReLU, Sequential
from repro.train import TrainConfig, Trainer, evaluate


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

    def test_early_stopping_truncates(self, tiny_split):
        train_set, val_set = tiny_split
        trainer = Trainer(
            small_model(),
            train_set,
            val_set,
            # lr=0 cannot improve -> patience triggers after epoch 0 result repeats
            TrainConfig(epochs=50, batch_size=16, lr=1e-12, patience=2),
        )
        hist = trainer.fit()
        assert len(hist) <= 4

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

    def test_schedule_factory_applied(self, tiny_split):
        from repro.nn.optim import StepLR

        train_set, val_set = tiny_split
        trainer = Trainer(
            small_model(),
            train_set,
            val_set,
            TrainConfig(epochs=3, batch_size=16, lr=0.1),
            schedule_factory=lambda opt: StepLR(opt, step_size=1, gamma=0.5),
        )
        trainer.fit()
        assert np.isclose(trainer.optimizer.lr, 0.1 * 0.5 ** 3)


class TestEpochTiming:
    def test_wall_and_throughput_fields(self, tiny_split):
        train_set, val_set = tiny_split
        trainer = Trainer(
            small_model(), train_set, val_set, TrainConfig(epochs=2, batch_size=16)
        )
        hist = trainer.fit()
        for h in hist:
            assert h.wall_s > 0.0
            assert h.samples_per_sec > 0.0
            # throughput is per train-loop second, so it can't exceed
            # the epoch's sample count divided by (a slice of) wall_s
            assert h.samples_per_sec >= len(train_set) / max(h.wall_s, 1e-9) * 0.5

    def test_verbose_logs_to_repro_train_logger(self, tiny_split, caplog):
        import logging

        train_set, val_set = tiny_split
        trainer = Trainer(
            small_model(),
            train_set,
            val_set,
            TrainConfig(epochs=1, batch_size=16, verbose=True),
        )
        with caplog.at_level(logging.INFO, logger="repro.train"):
            trainer.fit()
        records = [r for r in caplog.records if r.name == "repro.train"]
        assert len(records) == 1
        assert "train_loss" in records[0].getMessage()
        assert "samples/s" in records[0].getMessage()

    def test_quiet_by_default(self, tiny_split, caplog):
        import logging

        train_set, val_set = tiny_split
        trainer = Trainer(
            small_model(), train_set, val_set, TrainConfig(epochs=1, batch_size=16)
        )
        with caplog.at_level(logging.INFO, logger="repro.train"):
            trainer.fit()
        assert not [r for r in caplog.records if r.name == "repro.train"]


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
        assert [ev.attrs for ev in epochs] == [
            {k: v for k, v in asdict(stats).items() if k != "wall_s"} for stats in history
        ]
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


class TestTrainerAugmentation:
    def test_trainer_with_transform_learns(self, tiny_split):
        from repro.data import Augmentation

        train_set, val_set = tiny_split
        trainer = Trainer(
            small_model(),
            train_set,
            val_set,
            TrainConfig(epochs=6, batch_size=16, lr=0.05),
            transform=Augmentation(flip=True, crop_padding=1, seed=0),
        )
        hist = trainer.fit()
        assert trainer.best_top1 > 0.4  # chance is 0.25

    def test_validation_never_augmented(self, tiny_split):
        """evaluate() bypasses the transform (it builds its own loader)."""
        train_set, val_set = tiny_split
        model = small_model()
        a = evaluate(model, val_set)
        trainer = Trainer(
            model, train_set, val_set,
            TrainConfig(epochs=1, batch_size=16, lr=0.0001),
            transform=lambda imgs: np.zeros_like(imgs),  # destructive
        )
        # even a destructive train transform leaves evaluation inputs intact
        b = evaluate(model, val_set)
        assert a[0] == b[0]


class TestLoggerHygiene:
    """Repeated fit() in one process must never stack handlers or
    double-emit (the PR 5 logger-hygiene fix)."""

    @pytest.fixture
    def bare_logging(self):
        """Simulate a process with no logging configured at all."""
        import logging

        from repro.train import trainer as trainer_module

        train_logger = logging.getLogger("repro.train")
        root = logging.getLogger()
        saved = (
            list(train_logger.handlers),
            train_logger.propagate,
            train_logger.level,
            list(root.handlers),
            trainer_module._LOG_HANDLER,
        )
        train_logger.handlers.clear()
        root.handlers.clear()
        train_logger.propagate = True
        trainer_module._LOG_HANDLER = None
        yield train_logger
        train_logger.handlers.clear()
        train_logger.handlers.extend(saved[0])
        train_logger.propagate = saved[1]
        train_logger.setLevel(saved[2])
        root.handlers.clear()
        root.handlers.extend(saved[3])
        trainer_module._LOG_HANDLER = saved[4]

    def test_fallback_handler_attached_exactly_once(self, bare_logging):
        import logging

        from repro.train.trainer import _ensure_train_logging

        # pytest re-attaches its capture handler to the root logger at
        # call-phase start; drop it here so this really is a bare process
        logging.getLogger().handlers.clear()
        for _ in range(3):
            _ensure_train_logging()
        assert len(bare_logging.handlers) == 1
        assert bare_logging.propagate is False

    def test_respects_existing_configuration(self, bare_logging):
        """An application-attached handler means we add nothing — and
        repeated fits never double-emit through a stacked fallback."""
        import logging

        from repro.train.trainer import _ensure_train_logging

        records = []

        class _Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        bare_logging.addHandler(_Capture())
        for _ in range(3):
            _ensure_train_logging()
        assert len(bare_logging.handlers) == 1  # only the app's handler

    def test_repeated_verbose_fit_emits_once_per_epoch(self, bare_logging, tiny_split):
        import logging

        records = []

        class _Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        bare_logging.addHandler(_Capture())
        bare_logging.setLevel(logging.INFO)
        train_set, val_set = tiny_split
        trainer = Trainer(
            small_model(), train_set, val_set,
            TrainConfig(epochs=2, batch_size=16, verbose=True),
        )
        trainer.fit()
        n_first = len(records)
        assert n_first == 2  # one line per epoch
        trainer2 = Trainer(
            small_model(), train_set, val_set,
            TrainConfig(epochs=2, batch_size=16, verbose=True),
        )
        trainer2.fit()
        assert len(records) == n_first + 2  # no double emission


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
