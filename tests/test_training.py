import numpy as np
import pytest

from mixtask.featurize import SourceSpec
from mixtask.scheduler import MixtureConfig
from mixtask.toydata import make_nli, make_rqe
from mixtask.training import TaskData, TrainConfig, fine_tune_task, train_multitask


def quick_config(lr=0.01, epochs=6, seed=3, alpha=0.5, hidden=16):
    return TrainConfig(
        lr_multitask=lr,
        lr_finetune=lr / 10,
        epochs_finetune=3,
        mixture=MixtureConfig(alpha=alpha, batch_size=16, max_epoch=epochs, seed=seed),
        hidden_dim=hidden,
    )


def nli_task(seed=1, n=40, dev_n=12, role="in_domain", name="nli"):
    train = make_nli(name, n, role, seed)
    dev = make_nli(f"{name}_dev", dev_n, role, seed + 1)
    dev = train.with_samples(dev.samples)  # same task metadata, dev samples
    return TaskData(train=train, dev=dev)


def test_defaults_follow_the_published_recipe():
    cfg = TrainConfig()
    assert cfg.mixture.max_epoch == 20
    assert cfg.lr_multitask == 5e-5
    assert cfg.epochs_finetune == 6
    assert cfg.lr_finetune == 5e-6
    assert cfg.mixture.alpha == 0.5


def test_training_requires_in_domain_dev():
    task = nli_task()
    task_no_dev = TaskData(train=task.train, dev=None)
    src = SourceSpec("fam", 5, 64)
    with pytest.raises(ValueError, match="dev"):
        train_multitask([task_no_dev], src, quick_config())


def test_alpha_zero_with_external_matches_plain_loop():
    in_task = nli_task(seed=2)
    external = TaskData(train=make_nli("nli_ext", 25, "external", seed=9))
    src = SourceSpec("fam", 5, 64)
    with_ext = train_multitask([in_task, external], src, quick_config(alpha=0.0))
    plain = train_multitask([in_task], src, quick_config(alpha=0.0))
    assert with_ext.history == plain.history
    assert np.array_equal(with_ext.best.model.enc_weights, plain.best.model.enc_weights)


def test_training_is_deterministic():
    tasks = [nli_task(seed=4), TaskData(train=make_nli("nli_ext", 20, "external", seed=5))]
    src = SourceSpec("fam", 5, 64)
    a = train_multitask(tasks, src, quick_config())
    b = train_multitask(tasks, src, quick_config())
    assert a.history == b.history
    assert np.array_equal(a.best.model.enc_weights, b.best.model.enc_weights)
    for group in a.best.model.heads:
        assert np.array_equal(a.best.model.heads[group].weights, b.best.model.heads[group].weights)


def test_separable_task_improves_over_initial():
    src = SourceSpec("fam", 11, 96)
    for seed in range(5):
        train = make_rqe("rqe", 160, seed=100 + seed)
        dev = train.with_samples(make_rqe("rqe_dev", 60, seed=200 + seed).samples)
        result = train_multitask([TaskData(train, dev)], src, quick_config(epochs=10, seed=seed))
        assert result.best.dev_metrics["rqe"] > result.initial_metrics["rqe"]


def test_history_records_every_epoch():
    result = train_multitask([nli_task(seed=6)], SourceSpec("fam", 5, 64), quick_config(epochs=4))
    assert [h["epoch"] for h in result.history] == [1, 2, 3, 4]
    assert all("dev_metrics" in h and "selection" in h for h in result.history)
    best_selection = max(h["selection"] for h in result.history)
    assert result.best.selection_value == best_selection
    # first epoch achieving the best selection wins ties
    first_best = next(h["epoch"] for h in result.history if h["selection"] == best_selection)
    assert result.best.epoch == first_best


def test_shared_head_group_trains_same_parameters():
    # two in-domain tasks sharing one head group: the model holds exactly one head
    a = nli_task(seed=7, name="nli_a")
    b = nli_task(seed=8, name="nli_b")
    result = train_multitask([a, b], SourceSpec("fam", 5, 64), quick_config(epochs=2))
    assert set(result.best.model.heads) == {"nli"}


def test_fine_tune_zero_epochs_returns_input():
    task = nli_task(seed=9)
    src = SourceSpec("fam", 5, 64)
    ckpt = train_multitask([task], src, quick_config(epochs=3)).best
    cfg = quick_config()
    cfg = TrainConfig(lr_multitask=cfg.lr_multitask, lr_finetune=cfg.lr_finetune,
                      epochs_finetune=0, mixture=cfg.mixture, hidden_dim=cfg.hidden_dim)
    tuned = fine_tune_task(ckpt, task, cfg)
    assert tuned.epoch == 0
    assert np.array_equal(tuned.model.enc_weights, ckpt.model.enc_weights)


def test_fine_tune_never_below_input_metric():
    from mixtask.training import dev_gold, dev_metric
    from mixtask.featurize import FeatureCache

    task = nli_task(seed=10)
    src = SourceSpec("fam", 5, 64)
    cache = FeatureCache([src])
    ckpt = train_multitask([task], src, quick_config(epochs=3), cache=cache).best
    input_metric = dev_metric(ckpt.model, task.dev, cache.lookup(task.dev, src), dev_gold(task.dev))
    tuned = fine_tune_task(ckpt, task, quick_config(), cache=cache)
    assert tuned.dev_metrics[task.name] >= input_metric


def test_trainers_refuse_a_cache_built_for_other_sources():
    from mixtask.featurize import FeatureCache

    task = nli_task(seed=13)
    src = SourceSpec("fam", 5, 64)
    foreign = FeatureCache([SourceSpec("other", 6, 64)])
    with pytest.raises(ValueError, match="holds no source 'fam'"):
        train_multitask([task], src, quick_config(epochs=1), cache=foreign)
    ckpt = train_multitask([task], src, quick_config(epochs=1)).best
    with pytest.raises(ValueError, match="holds no source 'fam'"):
        fine_tune_task(ckpt, task, quick_config(), cache=foreign)


def test_fine_tune_requires_matching_head():
    task = nli_task(seed=11)
    src = SourceSpec("fam", 5, 64)
    ckpt = train_multitask([task], src, quick_config(epochs=2)).best
    stranger = nli_task(seed=12, name="other")
    stranger.train.head_group = "unknown_head"
    with pytest.raises(ValueError, match="head"):
        fine_tune_task(ckpt, stranger, quick_config())


def test_both_trainers_refuse_an_empty_dev_split():
    task = nli_task(seed=15)
    src = SourceSpec("fam", 5, 64)
    ckpt = train_multitask([task], src, quick_config(epochs=1)).best
    empty = TaskData(train=task.train, dev=task.dev.with_samples([]))
    with pytest.raises(ValueError, match="^task 'nli' has an empty dev split$"):
        train_multitask([empty], src, quick_config(epochs=1))
    with pytest.raises(ValueError, match="^task 'nli' has an empty dev split$"):
        fine_tune_task(ckpt, empty, quick_config())


def test_selection_rules_when_no_epoch_changes_a_prediction():
    """With a learning rate too small to change any prediction, every epoch
    scores what the input scores. Multi-task training still returns epoch 1,
    never the untrained model; fine-tuning returns its input, as epoch 0."""
    task = nli_task(seed=16)
    src = SourceSpec("fam", 5, 64)
    result = train_multitask([task], src, quick_config(lr=1e-12, epochs=3))
    assert [h["dev_metrics"] for h in result.history] == [result.initial_metrics] * 3
    assert result.best.epoch == 1
    tuned = fine_tune_task(result.best, task, quick_config(lr=1e-12))
    assert tuned.epoch == 0
    assert np.array_equal(tuned.model.params, result.best.model.params)
