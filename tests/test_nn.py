import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedme import engine, nn
from fedme.engine import FedMeConfig
from fedme.nn import ArchitectureSpec, Model
from reference import (batch_grads, cached_probs, cross_entropy, dml_loss,
                       evaluate_oracle, fd_gradient, kl_divergence, max_rel_err,
                       reference_train, softmax_oracle, splits_oracle)

ARCH = ArchitectureSpec(2, (3,), 2)


def test_parameter_count():
    assert ARCH.parameter_count() == (2 + 1) * 3 + (3 + 1) * 2 == 17
    deep = ArchitectureSpec(4, (5, 6), 3)
    assert deep.parameter_count() == (4 + 1) * 5 + (5 + 1) * 6 + (6 + 1) * 3


def test_arch_validation():
    with pytest.raises(ValueError):
        ArchitectureSpec(0, (3,), 2)
    with pytest.raises(ValueError):
        ArchitectureSpec(2, (), 2)
    with pytest.raises(ValueError):
        ArchitectureSpec(2, (1, 1, 1, 1, 1), 2)
    with pytest.raises(ValueError):
        ArchitectureSpec(2, (3,), 1)


def test_exchange_compatibility_ignores_hidden_widths():
    a = ArchitectureSpec(4, (3,), 2)
    b = ArchitectureSpec(4, (7, 7, 7), 2)
    c = ArchitectureSpec(4, (3,), 3)
    assert a.compatible_with(b)
    assert not a.compatible_with(c)


def test_init_deterministic_by_seed():
    m1 = nn.init_model(ARCH, 7)
    m2 = nn.init_model(ARCH, 7)
    assert np.array_equal(m1.params, m2.params)
    m3 = nn.init_model(ARCH, 8)
    assert not np.array_equal(m1.params, m3.params)


def test_init_biases_zero_weights_bounded():
    arch = ArchitectureSpec(10, (20,), 5)
    model = nn.init_model(arch, 0)
    offset = 10 * 20
    assert np.all(model.params[offset:offset + 20] == 0.0)
    limit = math.sqrt(6.0 / 30)
    assert np.all(np.abs(model.params[:offset]) <= limit)


def test_forward_zero_params_uniform():
    model = Model(ARCH, np.zeros(17))
    probs = nn.forward(model, np.random.default_rng(0).normal(size=(5, 2)))
    assert np.allclose(probs, 0.5)


def test_forward_rows_normalized_extreme_logits():
    # scale parameters so logits reach magnitude ~1e3
    model = Model(ARCH, nn.init_model(ARCH, 1).params * 1e4)
    probs = nn.forward(model, np.array([[1.0, -1.0], [50.0, 50.0]]))
    assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


# a small menu of values makes tied maxima and whole rows of ±0, ±inf or NaN
LOGITS = st.one_of(st.floats(-1e3, 1e3),
                   st.sampled_from((0.0, -0.0, 1.0, np.inf, -np.inf, np.nan)))


@settings(max_examples=200, deadline=None)
@given(logits=hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(0, 40),
                                               st.integers(2, 64)), elements=LOGITS))
def test_softmax_equals_its_oracle_byte_for_byte(logits):
    with np.errstate(invalid="ignore"):
        got, want = nn._softmax(logits.copy()), softmax_oracle(logits)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_forward_hand_computed_single_hidden_unit():
    # 1 input -> 1 relu unit -> 2 classes; params [w1, b1, v1, v2, c1, c2]
    arch = ArchitectureSpec(1, (1,), 2)
    model = Model(arch, np.array([2.0, -1.0, 1.5, -0.5, 0.1, 0.2]))
    x = 1.2
    h = max(2.0 * x - 1.0, 0.0)
    z = (1.5 * h + 0.1, -0.5 * h + 0.2)
    e = (math.exp(z[0]), math.exp(z[1]))
    expected = (e[0] / (e[0] + e[1]), e[1] / (e[0] + e[1]))
    probs = nn.forward(model, np.array([[x]]))
    assert np.allclose(probs[0], expected, atol=1e-12)


def test_forward_dimension_mismatch():
    model = nn.init_model(ARCH, 0)
    with pytest.raises(nn.DimensionError):
        nn.forward(model, np.zeros((3, 5)))


def test_cross_entropy_uniform_is_ln_m():
    probs = np.full((4, 2), 0.5)
    assert cross_entropy(probs, np.array([0, 1, 0, 1])) == pytest.approx(
        math.log(2), abs=1e-12)


def test_cross_entropy_one_hot_correct_is_zero():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert cross_entropy(probs, np.array([0, 1])) == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_hand_case():
    probs = np.array([[0.7, 0.3], [0.2, 0.8]])
    expected = -(math.log(0.7) + math.log(0.8)) / 2
    assert cross_entropy(probs, np.array([0, 1])) == pytest.approx(expected)


def test_cross_entropy_rejects_bad_labels():
    probs = np.full((2, 3), 1 / 3)
    with pytest.raises(ValueError):
        cross_entropy(probs, np.array([0, 3]))


def test_kl_identity_zero():
    rng = np.random.default_rng(3)
    p = rng.dirichlet(np.ones(4), size=10)
    assert abs(kl_divergence(p, p)) <= 1e-12


def test_kl_hand_case_and_asymmetry():
    p = np.array([[0.9, 0.1]])
    q = np.array([[0.5, 0.5]])
    expected = 0.9 * math.log(1.8) + 0.1 * math.log(0.2)
    assert kl_divergence(p, q) == pytest.approx(expected)
    assert kl_divergence(q, p) != pytest.approx(expected)


def test_kl_nonnegative_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = rng.dirichlet(np.ones(5), size=3)
        q = rng.dirichlet(np.ones(5), size=3)
        assert kl_divergence(p, q) >= -1e-12


def test_kl_shape_mismatch():
    with pytest.raises(nn.DimensionError):
        kl_divergence(np.ones((1, 2)) / 2, np.ones((2, 2)) / 2)


def test_dml_identical_models_reduce_to_ce():
    # an identical peer's KL pull is zero, so both DML gradients are the CE
    # gradient; a pair of different architectures is checked against finite
    # differences of CE plus the KL pull below
    model = nn.init_model(ARCH, 5)
    x = np.random.default_rng(0).normal(size=(6, 2))
    y = np.array([0, 1, 0, 1, 1, 0])
    g_p, g_ex = batch_grads(model, x, y, model)
    (g_ce,) = batch_grads(model, x, y)
    assert np.allclose(g_p, g_ex, rtol=0.0, atol=1e-12)
    assert np.allclose(g_p, g_ce, rtol=0.0, atol=1e-12)


def test_dml_gradients_match_finite_differences():
    rng = np.random.default_rng(123)
    for trial in range(5):
        arch_p = ArchitectureSpec(2, (3,), 2)
        arch_ex = ArchitectureSpec(2, (4,), 2)
        model_p = nn.init_model(arch_p, trial)
        model_ex = nn.init_model(arch_ex, trial + 100)
        x = rng.normal(size=(4, 2))
        y = rng.integers(0, 2, size=4)
        g_p, g_ex = batch_grads(model_p, x, y, model_ex)
        fd_p = fd_gradient(lambda p: dml_loss(Model(arch_p, p), model_ex, x, y),
                           model_p.params)
        fd_ex = fd_gradient(lambda p: dml_loss(Model(arch_ex, p), model_p, x, y),
                            model_ex.params)
        assert max_rel_err(g_p, fd_p) < 1e-4
        assert max_rel_err(g_ex, fd_ex) < 1e-4


def test_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    model = nn.init_model(ArchitectureSpec(3, (4, 3), 3), 2)
    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 3, size=5)
    (grad,) = batch_grads(model, x, y)
    fd = fd_gradient(
        lambda p: cross_entropy(nn.forward(Model(model.arch, p), x), y),
        model.params)
    assert max_rel_err(grad, fd) < 1e-4


def test_sgd_plain_step():
    model = Model(ARCH, np.ones(17))
    grad = np.full(17, 2.0)
    stepped, _ = nn.sgd_step(model, np.zeros(17), grad, lr=0.5, momentum=0.0,
                             weight_decay=0.0)
    assert np.allclose(stepped.params, 1.0 - 0.5 * 2.0)


def test_sgd_zero_gradient_no_motion():
    model = Model(ARCH, np.arange(17, dtype=float))
    stepped, _ = nn.sgd_step(model, np.zeros(17), np.zeros(17), lr=0.1,
                             momentum=0.0, weight_decay=0.0)
    assert np.array_equal(stepped.params, model.params)


def test_sgd_momentum_two_step_displacement():
    model = Model(ARCH, np.zeros(17))
    grad = np.full(17, 3.0)
    s1, buf = nn.sgd_step(model, np.zeros(17), grad, lr=0.1, momentum=0.9,
                          weight_decay=0.0)
    s2, _ = nn.sgd_step(s1, buf, grad, lr=0.1, momentum=0.9, weight_decay=0.0)
    assert np.allclose(s2.params, -0.1 * 3.0 * (1 + 1.9))


def test_sgd_rejects_nonfinite_gradient():
    model = nn.init_model(ARCH, 0)
    grad = np.zeros(17)
    grad[3] = np.nan
    with pytest.raises(ValueError):
        nn.sgd_step(model, np.zeros(17), grad, 0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        nn.sgd_step(model, np.zeros(17), np.zeros(17), -0.1, 0.0, 0.0)


def test_sgd_rejects_gradient_or_buffer_of_wrong_length():
    model = nn.init_model(ARCH, 0)
    with pytest.raises(nn.DimensionError):
        nn.sgd_step(model, np.zeros(17), np.zeros(16), 0.1, 0.0, 0.0)
    with pytest.raises(nn.DimensionError):
        nn.sgd_step(model, np.zeros(18), np.zeros(17), 0.1, 0.0, 0.0)


@pytest.mark.parametrize("pairing", ["single", "mutual", "separate"])
def test_train_loop_matches_pure_sgd_step_bitwise(pairing):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(31, 3))  # 31 rows: the last batch of 7 is short
    y = rng.integers(0, 3, size=31)
    params = FedMeConfig(rounds=1, epochs=3, lr=0.1, momentum=0.9,
                            weight_decay=1e-3, batch_size=7)
    model = nn.init_model(ArchitectureSpec(3, (5,), 3), 1)
    peer = None
    if pairing != "single":
        peer = nn.init_model(ArchitectureSpec(3, (4, 6), 3), 2)
    mutual = pairing == "mutual"
    ref_model, ref_peer = reference_train(
        model, peer, mutual, x, y, params, np.random.default_rng(5))

    (trained,) = nn.train([nn.Job(model, peer, x, y, np.random.default_rng(5))],
                          dataclasses.replace(params, dml=mutual))
    for got, want in zip(trained, [ref_model, ref_peer]):
        assert (got is None) == (want is None)
        assert got is None or got.params.tobytes() == want.params.tobytes()
    # the oracle applies momentum: without it, it ends elsewhere
    plain_model, _ = reference_train(
        model, peer, mutual, x, y, dataclasses.replace(params, momentum=0.0),
        np.random.default_rng(5))
    assert plain_model.params.tobytes() != ref_model.params.tobytes()


# hidden widths to draw from; one of them as wide as fedme-many's models
LOCKSTEP_MENU = ((3,), (64,), (4, 2), (5, 5, 5))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lockstep_train_matches_pure_step_oracle_bitwise(data):
    dim = data.draw(st.integers(1, 4), label="input_dim")
    classes = data.draw(st.integers(2, 4), label="num_classes")
    params = FedMeConfig(epochs=data.draw(st.integers(1, 2), label="epochs"),
                         batch_size=data.draw(st.integers(1, 20), label="batch_size"),
                         lr=0.1, momentum=0.9, weight_decay=1e-3,
                         dml=data.draw(st.booleans(), label="dml"))
    menu = st.sampled_from(LOCKSTEP_MENU)
    # (widths, peer widths or None, train rows, seed) per job
    specs = data.draw(st.lists(
        st.tuples(menu, st.none() | menu, st.integers(1, 90), st.integers(0, 2**16)),
        min_size=1, max_size=12), label="jobs")

    def jobs():
        made = []
        for widths, peer_widths, n, seed in specs:
            rng = np.random.default_rng(seed)
            arch = ArchitectureSpec(dim, widths, classes)
            peer = None
            if peer_widths is not None:
                peer = nn.init_model(ArchitectureSpec(dim, peer_widths, classes),
                                     seed + 1)
            made.append(nn.Job(nn.init_model(arch, seed), peer,
                               rng.normal(size=(n, dim)),
                               rng.integers(0, classes, size=n),
                               np.random.default_rng(seed + 2)))
        return made

    want = []
    for job in jobs():
        model, peer = reference_train(job.model, job.peer, params.dml, job.features,
                                       job.labels, params, job.rng)
        want.append([m.params.tobytes() for m in (model, peer) if m is not None])

    def trained_bytes(trained):
        return [[m.params.tobytes() for m in pair if m is not None] for pair in trained]

    assert trained_bytes(nn.train(jobs(), params)) == want

    # a budget below one model's bytes puts every job in a cohort of its own,
    # and a cohort never splits a job's model from its peer
    cohorts = []
    train_cohort = nn._train_cohort

    def recording(cohort, p, start):
        cohorts.append([{id(job.model), id(job.peer)} for job in cohort])
        return train_cohort(cohort, p, start)

    made = jobs()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "COHORT_BYTES", 1)
        mp.setattr(nn, "_train_cohort", recording)
        assert trained_bytes(nn.train(made, params)) == want
    assert cohorts == [[{id(job.model), id(job.peer)}] for job in made]


@pytest.mark.parametrize("budget", [nn.COHORT_BYTES, 1], ids=["shared-cohort", "own-cohorts"])
def test_train_returns_the_trained_models_and_changes_no_job(budget, monkeypatch):
    monkeypatch.setattr(nn, "COHORT_BYTES", budget)
    arch, deep = ArchitectureSpec(3, (5,), 3), ArchitectureSpec(3, (4, 4), 3)
    archs, peers, sizes = [arch, deep, arch, deep], [deep, None, arch, None], [9, 12, 7, 10]
    params = FedMeConfig(epochs=2, batch_size=4, lr=0.1, momentum=0.9,
                         weight_decay=1e-3, dml=True)
    made = _jobs(archs, sizes, 3, peers)
    before = [[m.params.tobytes() for m in (job.model, job.peer) if m is not None]
              for job in made]
    trained = nn.train(made, params)
    assert [[m.params.tobytes() for m in (job.model, job.peer) if m is not None]
            for job in made] == before
    assert [[m.params.tobytes() for m in pair if m is not None]
            for pair in trained] == _oracle_bytes(archs, sizes, params, peers)
    assert [peer is None for _, peer in trained] == [p is None for p in peers]
    # with no epochs, every job's own models come back
    idle = nn.train(made, dataclasses.replace(params, epochs=0))
    assert all(model is job.model and peer is job.peer
               for (model, peer), job in zip(idle, made))


@pytest.mark.parametrize("dml", [False, True])
def test_one_model_in_several_jobs_trains_as_copies_would(dml):
    # as FedAvg's clients all start from the global model, and a FedMe donor
    # trains its own model while another client trains it as a peer
    shared = nn.init_model(ArchitectureSpec(3, (5,), 3), 0)
    other = nn.init_model(ArchitectureSpec(3, (4, 4), 3), 1)
    before = shared.params.tobytes()
    rng = np.random.default_rng(4)
    rows = [(rng.normal(size=(m, 3)), rng.integers(0, 3, size=m)) for m in (9, 12, 7)]
    pairs = [(shared, None), (other, shared), (shared, shared)]
    params = FedMeConfig(epochs=2, batch_size=4, lr=0.1, momentum=0.9,
                         weight_decay=1e-3, dml=dml)

    def trained_bytes(copy):
        def own(m):
            return Model(m.arch, m.params.copy()) if copy and m is not None else m
        made = [nn.Job(own(model), own(peer), *xy, np.random.default_rng(i))
                for i, ((model, peer), xy) in enumerate(zip(pairs, rows))]
        return [[m.params.tobytes() for m in pair if m is not None]
                for pair in nn.train(made, params)]

    assert trained_bytes(copy=False) == trained_bytes(copy=True)
    assert shared.params.tobytes() == before


def _jobs(archs, sizes, seed, peer_archs=None):
    """One job per (arch, train size), with a peer of `peer_archs`' arch
    where that is not None."""
    made = []
    for i, (arch, n) in enumerate(zip(archs, sizes)):
        rng = np.random.default_rng([seed, i])
        peer = (None if peer_archs is None or peer_archs[i] is None
                else nn.init_model(peer_archs[i], seed + 1000 + i))
        made.append(nn.Job(nn.init_model(arch, seed + i), peer,
                           rng.normal(size=(n, arch.input_dim)),
                           rng.integers(0, arch.num_classes, size=n),
                           np.random.default_rng([seed, i, 1])))
    return made


def _oracle_bytes(archs, sizes, params, peer_archs=None):
    want = []
    for job in _jobs(archs, sizes, 3, peer_archs):
        trained = reference_train(job.model, job.peer, params.dml, job.features,
                                   job.labels, params, job.rng)
        want.append([m.params.tobytes() for m in trained if m is not None])
    return want


def _trained_bytes(archs, sizes, params, peer_archs=None):
    return [[m.params.tobytes() for m in pair if m is not None]
            for pair in nn.train(_jobs(archs, sizes, 3, peer_archs), params)]


@pytest.mark.parametrize("dml", [False, True])
def test_short_batches_pad_into_one_stacked_step_per_tick(dml, monkeypatch):
    # train sizes 21-26 end their one epoch on batches of 1-6 rows: one
    # stacked kernel call for the full batches and one for the short ones
    arch = ArchitectureSpec(3, (5,), 3)
    peers = [arch] * 6 if dml else None
    params = FedMeConfig(epochs=1, batch_size=20, lr=0.1, momentum=0.9,
                         weight_decay=1e-3, dml=dml)
    want = _oracle_bytes([arch] * 6, range(21, 27), params, peers)
    kernel = "dml_losses_and_grads" if dml else "ce_loss_and_grad"
    stacks = []
    counted = getattr(nn, kernel)

    def counting(*args):
        stacks.append(args[0].params.shape[0])
        return counted(*args)

    monkeypatch.setattr(nn, kernel, counting)
    assert _trained_bytes([arch] * 6, range(21, 27), params, peers) == want
    assert stacks == ([12, 12] if dml else [6, 6])


@pytest.mark.parametrize("dml", [False, True])
def test_padded_steps_keep_the_bits_at_the_shapes_blas_rounds_apart(dml):
    # fan-in and fan-out 1, 64-wide layers and one-row batches: the shapes
    # where a product padded to another row count changes its bits
    archs = [ArchitectureSpec(1, (64,), 3),
             ArchitectureSpec(1, (1, 64), 2),
             ArchitectureSpec(6, (64, 64), 4)]
    sizes = [40, 21, *range(22, 39), 1]  # short batches of 1-18 rows beside full ones
    params = FedMeConfig(epochs=2, batch_size=20, lr=0.1, momentum=0.9,
                         weight_decay=1e-3, dml=dml)
    for arch in archs:
        peer = ArchitectureSpec(arch.input_dim, (64,), arch.num_classes)
        peers = [peer] * len(sizes)
        assert (_trained_bytes([arch] * len(sizes), sizes, params, peers)
                == _oracle_bytes([arch] * len(sizes), sizes, params, peers))


def test_padded_stack_losses_and_grads_match_the_one_model_adapter():
    arch = ArchitectureSpec(3, (64, 4), 3)
    peer_arch = ArchitectureSpec(3, (5,), 3)
    rows = [7, 7, 1, 4, 7]
    made = _jobs([arch] * 5, rows, 8, [peer_arch] * 5)
    # each batch padded to 7 rows with copies of its last row
    pad = [np.minimum(np.arange(7), r - 1) for r in rows]
    X = np.stack([job.features[p] for job, p in zip(made, pad)])
    y = np.stack([job.labels[p] for job, p in zip(made, pad)])
    shorts = [(slice(2, 3), 1), (slice(3, 4), 4)]
    W = np.stack([job.model.params for job in made])
    peers = np.stack([job.peer.params for job in made])
    peer_probs = nn._forward_cached(nn._forward_views(peer_arch, peers), X, shorts)[0]
    # the flat position of each row's label in the (5, 7, M) probabilities
    hits = np.arange(5 * 7).reshape(5, 7) * arch.num_classes + y
    counts = np.array(rows, dtype=float).reshape(5, 1, 1)
    stacks = [nn._bind(arch, W, np.empty_like(W)) for _ in range(2)]
    stacked = [nn.ce_loss_and_grad(stacks[0], nn._forward_cached(stacks[0].forward, X, shorts),
                                   hits, counts, shorts),
               nn.dml_losses_and_grads(stacks[1],
                                       nn._forward_cached(stacks[1].forward, X, shorts),
                                       hits, counts, peer_probs, shorts)]
    for c, job in enumerate(made):
        for grads, peer in zip(stacked, (None, job.peer)):
            grad, *_ = batch_grads(job.model, job.features, job.labels, peer)
            assert grads[c].tobytes() == grad.tobytes()


def test_dml_blocks_share_the_longest_batch_of_the_tick_across_architectures(monkeypatch):
    # at tick 1 the (5,) block's longest batch has 13 rows and the (4, 4)
    # block's 20: both stacks pad to 20 rows, and the 13-row batch, though
    # the longest of its own stack, is redone at its own row count
    small, deep = ArchitectureSpec(3, (5,), 3), ArchitectureSpec(3, (4, 4), 3)
    archs, peers, sizes = [small, deep, small], [small, deep, deep], [25, 40, 33]
    params = FedMeConfig(epochs=2, batch_size=20, lr=0.1, momentum=0.9,
                         weight_decay=1e-3, dml=True)
    want = _oracle_bytes(archs, sizes, params, peers)
    stacks = []
    counted = nn.dml_losses_and_grads

    def counting(*args):
        stacks.append((args[0].params.shape[0], args[2].shape[1], args[5]))
        return counted(*args)

    monkeypatch.setattr(nn, "dml_losses_and_grads", counting)
    assert _trained_bytes(archs, sizes, params, peers) == want
    full = [(3, 20, []), (3, 20, [])]
    tick_1 = [(3, 20, [(slice(0, 1), 13), (slice(1, 3), 5)]),
              (3, 20, [(slice(2, 3), 13)])]
    assert stacks == full + tick_1 + full + tick_1


def test_dml_and_ce_jobs_of_one_architecture_keep_their_bits():
    # as a donor map that leaves clients out makes: DML jobs and CE jobs of
    # one architecture in one call, each loss's models in a stack of its own
    arch = ArchitectureSpec(3, (5,), 3)
    peers = [arch, None, ArchitectureSpec(3, (4, 4), 3), None, arch]
    sizes = [25, 40, 33, 7, 20]
    params = FedMeConfig(epochs=2, batch_size=10, lr=0.1, momentum=0.9,
                         weight_decay=1e-3, dml=True)
    assert (_trained_bytes([arch] * 5, sizes, params, peers)
            == _oracle_bytes([arch] * 5, sizes, params, peers))


def _plan_oracle(blocks, n, first, mate, order, labels, size, epochs):
    """The schedule `_plan` computes, worked out tick by tick: each block's
    prefix height c, batches, label positions, real-row counts, padding and
    short runs by the formulas the tick loop applied before the plan, and
    each DML model's partner by its block's place among the tick's DML
    stacks."""
    def short_runs(counts, padded):
        edges = [0, *(np.flatnonzero(counts[1:] != counts[:-1]) + 1).tolist(),
                 len(counts)]
        return [(slice(a, b), int(counts[a])) for a, b in zip(edges[:-1], edges[1:])
                if counts[a] < padded]

    tops = np.cumsum([0] + [len(blk.params) for blk in blocks])
    ticks = epochs * -(-n // size)
    steps = []
    for t in range(int(ticks.max(initial=0))):
        stepping = []
        for b, blk in enumerate(blocks):
            lo, hi = tops[b], tops[b + 1]
            active = np.count_nonzero(ticks[lo:hi] > t)
            if active:
                per_epoch = -(-n[lo:lo + active] // size)
                k = t % per_epoch
                at = first[lo:lo + active] + (t // per_epoch) * n[lo:lo + active] + k * size
                counts = np.minimum(n[lo:lo + active] - k * size, size)
                stepping.append((b, active, at, counts))
        widest = max((counts.max() for b, *_, counts in stepping if blocks[b].dml),
                     default=0)
        pooled, offset = 0, {}
        for b, active, *_ in stepping:
            if blocks[b].dml:
                offset[b], pooled = pooled, pooled + active
        tick = []
        for b, active, at, counts in stepping:
            blk = blocks[b]
            padded = int(widest if blk.dml else counts.max())
            pad = np.minimum(np.arange(padded), counts[:, None] - 1)
            peers = None
            if blk.dml:
                mates = mate[tops[b]:tops[b] + active]
                owner = np.searchsorted(tops, mates, side="right") - 1
                peers = np.array([offset[o] + m - tops[o] for o, m in zip(owner, mates)])
            picks = order[at[:, None] + pad]
            # row r of model m's batch in the (c, b, M) probabilities
            hits = ((np.arange(active)[:, None] * padded + np.arange(padded))
                    * blk.arch.num_classes + labels[picks])
            tick.append((blk, active, picks, hits,
                         counts.astype(float).reshape(-1, 1, 1),
                         short_runs(counts, padded), peers))
        steps.append(tick)
    return steps


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_plan_matches_the_tick_by_tick_schedule(data):
    size = data.draw(st.integers(1, 20), label="batch_size")
    params = FedMeConfig(epochs=data.draw(st.integers(1, 3), label="epochs"),
                         batch_size=size, lr=0.1, dml=data.draw(st.booleans(), label="dml"))
    archs = [ArchitectureSpec(2, (w,), 2) for w in (1, 2, 3)]
    rows = st.integers(1, 90) | st.integers(1, 90 // size).map(lambda m: m * size)
    # (train rows, arch, peer arch or None) per job: with dml on, the jobs
    # with a peer make DML blocks and the others CE blocks
    specs = data.draw(st.lists(st.tuples(rows, st.sampled_from(archs),
                                         st.none() | st.sampled_from(archs)),
                               min_size=1, max_size=10), label="jobs")
    rng = np.random.default_rng(0)
    jobs = [nn.Job(nn.init_model(arch, 0), None if peer is None else nn.init_model(peer, 1),
                   rng.normal(size=(m, 2)), rng.integers(0, 2, size=m),
                   np.random.default_rng(i)) for i, (m, arch, peer) in enumerate(specs)]
    planned = []
    plan = nn._plan

    def recording(*args):
        planned.append((args, plan(*args)))
        return []  # the schedule is all this test needs: train nothing

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "COHORT_BYTES", 2**40)
        mp.setattr(nn, "_plan", recording)
        nn.train(jobs, params)
    (args, steps), = planned
    want = _plan_oracle(*args)
    assert len(steps) == len(want)
    for got_tick, want_tick in zip(steps, want):
        assert len(got_tick) == len(want_tick)
        for (blk, stack, buf, *got), (want_blk, c, *expected) in zip(got_tick, want_tick):
            assert blk is want_blk
            # the stack and momentum rows are views of the block's first c rows
            for view, rows in ((stack.params, blk.params), (stack.grad, blk.grad),
                               (buf, blk.buf)):
                assert view.shape == rows[:c].shape
                assert np.shares_memory(view, rows[:c])
                assert not np.shares_memory(view, rows[c:])
            for got_array, want_array in zip(got[:3], expected[:3]):  # picks, hits, counts
                assert got_array.tobytes() == want_array.tobytes()
                assert got_array.shape == want_array.shape
            assert got[3] == expected[3]
            if expected[4] is None:
                assert got[4] is None
            else:
                assert np.array_equal(got[4], expected[4])


def test_a_block_binds_each_prefix_height_once(monkeypatch):
    # per block, train sizes 15, 15 and 5 on batches of 10 over 2 epochs:
    # its 3 models step batches of 10 then 5 rows, then its first 2 do the
    # same, so each prefix height steps at two padded lengths
    archs = [ArchitectureSpec(3, (5,), 3), ArchitectureSpec(3, (4, 4), 3)] * 3
    sizes = [15, 15, 15, 15, 5, 5]
    params = FedMeConfig(epochs=2, batch_size=10, lr=0.1, momentum=0.9)
    want = _oracle_bytes(archs, sizes, params)
    binds, steps = [], []
    bind, kernel = nn._bind, nn.ce_loss_and_grad

    def counting_bind(arch, stack, grad):
        binds.append((arch, len(stack)))
        return bind(arch, stack, grad)

    def counting_kernel(stack, cached, hits, *rest):
        steps.append((len(stack.params), hits.shape[1]))
        return kernel(stack, cached, hits, *rest)

    monkeypatch.setattr(nn, "_bind", counting_bind)
    monkeypatch.setattr(nn, "ce_loss_and_grad", counting_kernel)
    assert _trained_bytes(archs, sizes, params) == want
    assert sorted(set(steps)) == [(2, 5), (2, 10), (3, 5), (3, 10)]
    assert sorted(binds, key=str) == sorted({(arch, c) for arch in archs[:2]
                                             for c in (2, 3)}, key=str)


def test_jobs_on_the_same_rows_stack_them_once(monkeypatch):
    # as best-local probing does: several models train on one client's rows
    archs = [ArchitectureSpec(3, (5,), 3), ArchitectureSpec(3, (4, 4), 3)]
    params = FedMeConfig(epochs=2, batch_size=4, lr=0.1, momentum=0.9)
    rng = np.random.default_rng(5)
    rows = [(rng.normal(size=(m, 3)), rng.integers(0, 3, size=m)) for m in (11, 6)]
    specs = [(archs[0], 0), (archs[1], 0), (archs[0], 1), (archs[1], 0)]

    def jobs():
        return [nn.Job(nn.init_model(arch, i), None, *rows[r], np.random.default_rng(i))
                for i, (arch, r) in enumerate(specs)]

    want = [reference_train(job.model, None, False, job.features, job.labels, params,
                             job.rng)[0].params.tobytes() for job in jobs()]
    orders = []
    plan = nn._plan

    def recording(*args):
        orders.append(args[4])
        return plan(*args)

    monkeypatch.setattr(nn, "_plan", recording)
    assert [model.params.tobytes() for model, _ in nn.train(jobs(), params)] == want
    (order,) = orders
    assert order.max() + 1 == 11 + 6


@pytest.mark.parametrize("sizes", [[0], [0, 0], [5, 0, 12, 0]])
def test_jobs_without_rows_keep_their_bits(sizes):
    arch = ArchitectureSpec(3, (5,), 3)
    params = FedMeConfig(epochs=2, batch_size=4, lr=0.1, momentum=0.9, dml=True)
    made = _jobs([arch] * len(sizes), sizes, 3, [arch] * len(sizes))
    before = [[m.params.tobytes() for m in (job.model, job.peer)] for job in made]
    want = _oracle_bytes([arch] * len(sizes), sizes, params, [arch] * len(sizes))
    got = [[m.params.tobytes() for m in pair] for pair in nn.train(made, params)]
    assert got == want
    for m, job_got, job_before in zip(sizes, got, before):
        assert (job_got == job_before) == (m == 0)


@pytest.mark.parametrize("budget", [nn.COHORT_BYTES, 1], ids=["shared-cohort", "own-cohorts"])
@pytest.mark.parametrize("dml", [False, True])
def test_a_divergence_names_the_positions_of_its_jobs(dml, budget, monkeypatch):
    # a budget below one model's bytes puts each job in a cohort of its own,
    # where its position in the cohort is 0, not its position in the call
    monkeypatch.setattr(nn, "COHORT_BYTES", budget)
    arch = ArchitectureSpec(3, (5,), 3)
    made = _jobs([arch] * 4, [9, 12, 7, 10], 6, [arch] * 4 if dml else None)
    made[1] = made[1]._replace(features=made[1].features * 1e300)
    params = FedMeConfig(epochs=2, batch_size=4, lr=0.1, momentum=0.9, dml=dml)
    with (np.errstate(over="ignore", invalid="ignore"),
          pytest.raises(ValueError, match=r"lr=0.1: training diverged in the jobs "
                                          r"at positions \[1\]$")):
        nn.train(made, params)


def _overflowing_call(dml):
    """Three one-step jobs; job 1's gradients are finite, of order 1e3, but
    the step of lr times them overflows its parameters."""
    arch = ArchitectureSpec(3, (5,), 3)
    made = _jobs([arch] * 3, [9, 9, 9], 6, [arch] * 3 if dml else None)
    made[1] = made[1]._replace(features=made[1].features * 1e3)
    return made, FedMeConfig(epochs=1, batch_size=9, lr=1e308, momentum=0.9, dml=dml)


@pytest.mark.parametrize("dml", [False, True])
def test_a_last_step_that_overflows_the_parameters_names_its_job(dml):
    made, params = _overflowing_call(dml)
    with (np.errstate(over="ignore", invalid="ignore"),
          pytest.raises(nn.DivergenceError, match=r"non-finite parameters at lr=1e\+308: "
                                                  r"training diverged") as caught):
        nn.train(made, params)
    assert caught.value.jobs == [1]


@pytest.mark.parametrize("dml", [False, True])
def test_a_failed_training_call_leaves_its_jobs_as_they_were(dml):
    made, params = _overflowing_call(dml)
    before = [[m.params.tobytes() for m in (job.model, job.peer) if m is not None]
              for job in made]
    with (np.errstate(over="ignore", invalid="ignore"),
          pytest.raises(nn.DivergenceError) as caught):
        nn.train(made, params)
    assert caught.value.jobs == [1]
    assert [[m.params.tobytes() for m in (job.model, job.peer) if m is not None]
            for job in made] == before


@pytest.mark.parametrize("field, value", [("batch_size", 0), ("batch_size", -3),
                                          ("epochs", -1), ("lr", 0.0), ("lr", -0.1)])
def test_train_rejects_bad_hyperparameters_before_any_job_trains(field, value):
    made = _jobs([ARCH], [9], 4)
    before = made[0].model.params.tobytes()
    params = dataclasses.replace(FedMeConfig(epochs=1, batch_size=4, lr=0.1),
                                 **{field: value})
    with pytest.raises(ValueError, match=field):
        nn.train(made, params)
    assert made[0].model.params.tobytes() == before


def test_train_rejects_jobs_of_two_input_widths_before_any_job_trains(monkeypatch):
    # one job per cohort: the first job's cohort would train before the
    # second's failed
    monkeypatch.setattr(nn, "COHORT_BYTES", 1)
    made = _jobs([ArchitectureSpec(3, (5,), 3), ArchitectureSpec(5, (5,), 3)], [9, 9], 4)
    before = [job.model.params.tobytes() for job in made]
    with pytest.raises(nn.DimensionError, match="input width"):
        nn.train(made, FedMeConfig(epochs=1, batch_size=4, lr=0.1))
    assert [job.model.params.tobytes() for job in made] == before


def test_train_rejects_jobs_of_two_class_counts_before_any_job_trains(monkeypatch):
    monkeypatch.setattr(nn, "COHORT_BYTES", 1)
    made = _jobs([ArchitectureSpec(3, (5,), 3), ArchitectureSpec(3, (5,), 4)], [9, 9], 4)
    before = [job.model.params.tobytes() for job in made]
    with pytest.raises(nn.DimensionError,
                       match=r"class count: .*num_classes=4\).*num_classes=3\)$"):
        nn.train(made, FedMeConfig(epochs=1, batch_size=4, lr=0.1))
    assert [job.model.params.tobytes() for job in made] == before


def test_sgd_step_is_exact_and_leaves_its_arguments_unchanged():
    model = nn.init_model(ARCH, 3)
    buf = np.linspace(0.5, -0.3, 17)
    grad = np.linspace(-1.0, 1.0, 17)
    before = (model.params.copy(), buf.copy(), grad.copy())
    stepped, stepped_buf = nn.sgd_step(model, buf, grad, lr=0.1, momentum=0.9,
                                       weight_decay=0.01)
    want_buf = 0.9 * buf + (grad + 0.01 * model.params)
    assert stepped_buf.tobytes() == want_buf.tobytes()
    assert stepped.params.tobytes() == (model.params - 0.1 * want_buf).tobytes()
    for now, then in zip((model.params, buf, grad), before):
        assert np.array_equal(now, then)


def test_average_idempotent():
    model = nn.init_model(ARCH, 4)
    avg = nn.average_params([model] * 5)
    assert np.allclose(avg.params, model.params, atol=1e-15)


def test_average_arithmetic_and_permutation():
    arch = ArchitectureSpec(1, (1,), 2)  # any 6-parameter layout
    a = Model(arch, np.array([2.0, 4.0, 0.0, 0.0, 0.0, 0.0]))
    b = Model(arch, np.array([4.0, 8.0, 0.0, 0.0, 0.0, 0.0]))
    avg = nn.average_params([a, b])
    assert np.allclose(avg.params[:2], [3.0, 6.0])
    models = [nn.init_model(ARCH, s) for s in range(4)]
    forward_avg = nn.average_params(models)
    backward_avg = nn.average_params(models[::-1])
    assert np.allclose(forward_avg.params, backward_avg.params, atol=1e-15)


def test_average_rejects_mixed_architectures():
    with pytest.raises(ValueError):
        nn.average_params([nn.init_model(ARCH, 0),
                           nn.init_model(ArchitectureSpec(2, (4,), 2), 0)])


def test_models_are_read_only_values():
    made = nn.init_model(ARCH, 0)
    x, y = np.random.default_rng(1).normal(size=(6, 2)), np.array([0, 1] * 3)
    ((trained, _),) = nn.train([nn.Job(made, None, x, y, np.random.default_rng(2))],
                               FedMeConfig(epochs=1, batch_size=4, lr=0.1))
    # lineage 0 is the mean of two models, lineage 1 of its owner's alone
    lineages = engine.aggregate([made, trained], {1: made},
                                engine.ExchangePlan(1, {1: 0}, {0: 0, 1: 0}, 1))
    restored = nn.deserialize_model(nn.serialize_model(trained))
    for model in (made, trained, lineages[0], lineages[1], restored):
        with pytest.raises(ValueError, match="read-only"):
            model.params[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.params = np.zeros(17)
    assert not hasattr(Model, "copy")


def test_models_stay_read_only_through_pickle_and_deepcopy():
    made = nn.init_model(ARCH, 0)
    for restored in (pickle.loads(pickle.dumps(made)), copy.deepcopy(made)):
        assert restored.arch == made.arch and restored.params is not made.params
        assert np.array_equal(restored.params, made.params)
        with pytest.raises(ValueError, match="read-only"):
            restored.params[0] = 1.0


def test_evaluate_zero_model_tie_breaks_to_class_zero():
    model = Model(ARCH, np.zeros(17))
    x = np.random.default_rng(0).normal(size=(10, 2))
    y = np.array([0, 1] * 5)
    _, acc = nn.evaluate(model, x, y)
    assert acc == 0.5


def test_evaluate_hand_counted():
    # single linear-ish net scoring class by sign of first feature
    arch = ArchitectureSpec(2, (2,), 2)
    model = nn.init_model(arch, 9)
    x = np.array([[3.0, 0.0], [-3.0, 0.0], [2.0, 1.0], [-2.0, -1.0]])
    y = np.array([0, 1, 0, 1])
    probs = nn.forward(model, x)
    expected = np.mean(np.argmax(probs, axis=1) == y)
    loss, acc = nn.evaluate(model, x, y)
    assert acc == expected
    assert loss == pytest.approx(cross_entropy(probs, y))


def test_evaluate_rejects_empty_split():
    model = nn.init_model(ARCH, 0)
    with pytest.raises(ValueError):
        nn.evaluate(model, np.zeros((0, 2)), np.zeros(0, dtype=int))


@st.composite
def _desk_models(draw):
    """Models of the desk shapes: fan-in at most 16 into every layer, and no
    layer one unit wide."""
    arch = ArchitectureSpec(
        draw(st.integers(1, 16)),
        tuple(draw(st.lists(st.integers(2, 16), min_size=1, max_size=4))),
        draw(st.integers(2, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return Model(arch, rng.normal(scale=draw(st.sampled_from((0.3, 1.0, 4.0))),
                                  size=arch.parameter_count()))


@settings(max_examples=60, deadline=None)
@given(model=_desk_models(), sizes=st.tuples(*[st.integers(1, 50)] * 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_evaluate_splits_is_bitwise_the_per_split_oracle(model, sizes, seed):
    # each split scored on the one oracle pass over the rows the call spans,
    # so a one-row split keeps its bits too (scored alone, it may not: see
    # the test below)
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    x = rng.normal(scale=2.0, size=(n, model.arch.input_dim))
    y = rng.integers(0, model.arch.num_classes, size=n)
    ends = (0, sizes[0], sizes[0] + sizes[1], n)
    for lo, hi in ((0, 4), (0, 3), (1, 4)):
        assert (nn.evaluate_splits(model, x, y, ends[lo:hi])
                == splits_oracle(model, x, y, ends[lo:hi]))
    assert nn.forward(model, x).tobytes() == cached_probs(model, x).tobytes()


@pytest.mark.parametrize("sizes,hidden", [((1, 5, 4), (8,)), ((6, 5, 4), (1,))],
                         ids=["one-row-split", "one-unit-layer"])
def test_evaluate_splits_matches_the_oracle_to_rounding_where_blas_uses_gemv(
        sizes, hidden):
    # A product with one row, or one output column, goes through BLAS
    # matrix-vector code whose summation order can differ from the
    # matrix-matrix code that the stacked rows take, so these cases agree
    # with the per-split oracle only to rounding.
    rng = np.random.default_rng(5)
    model = nn.init_model(ArchitectureSpec(12, hidden, 3), 5)
    n = sum(sizes)
    x, y = rng.normal(size=(n, 12)), rng.integers(0, 3, size=n)
    ends = (0, sizes[0], sizes[0] + sizes[1], n)
    got = nn.evaluate_splits(model, x, y, ends)
    want = [evaluate_oracle(model, x[a:b], y[a:b])
            for a, b in zip(ends, ends[1:])]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_evaluate_splits_rejects_bad_splits():
    model = nn.init_model(ARCH, 0)
    x, y = np.zeros((6, 2)), np.array([0, 1] * 3)
    with pytest.raises(ValueError, match="empty split"):
        nn.evaluate_splits(model, x, y, (0, 3, 3, 6))
    with pytest.raises(ValueError, match="outside"):
        nn.evaluate_splits(model, x, y, (0, 3, 7))
    with pytest.raises(nn.DimensionError):
        nn.evaluate_splits(model, x, y[:5], (0, 5))
    with pytest.raises(ValueError, match="labels must lie"):
        nn.evaluate_splits(model, x, np.array([0, 1, 2, 0, 1, 0]), (0, 3, 6))


def test_serialize_round_trip():
    arch = ArchitectureSpec(3, (4, 2), 5)
    model = Model(arch, np.concatenate(([-1.25e-7], nn.init_model(arch, 31).params[1:])))
    restored = nn.deserialize_model(nn.serialize_model(model))
    assert restored.arch == model.arch
    assert np.array_equal(restored.params, model.params)


def test_trained_model_survives_a_checkpoint_field_for_field():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(12, 3))
    y = rng.integers(0, 3, size=12)
    ((model, _),) = nn.train([nn.Job(nn.init_model(ArchitectureSpec(3, (4,), 3), 0),
                                     None, x, y, rng)],
                             FedMeConfig(rounds=1, epochs=2, batch_size=5))
    restored = nn.deserialize_model(nn.serialize_model(model))
    for f in dataclasses.fields(Model):
        got, want = getattr(restored, f.name), getattr(model, f.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        else:
            assert got == want


def test_serialize_size_matches_layout():
    model = nn.init_model(ARCH, 0)
    blob = nn.serialize_model(model)
    header = 4 + 2 + 1 + 1 + 4 * 3
    assert len(blob) == header + 8 * ARCH.parameter_count()


def test_deserialize_rejects_corruption():
    blob = nn.serialize_model(nn.init_model(ARCH, 0))
    with pytest.raises(ValueError):
        nn.deserialize_model(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        nn.deserialize_model(blob[:-8])
    bad_version = blob[:4] + b"\x63\x00" + blob[6:]
    with pytest.raises(ValueError):
        nn.deserialize_model(bad_version)


def test_deserialize_rejects_any_activation_code_but_relu():
    blob = nn.serialize_model(nn.init_model(ARCH, 0))
    assert blob[6] == 0  # ReLU
    for code in (1, 2, 255):
        with pytest.raises(ValueError, match=f"unknown activation code {code}$"):
            nn.deserialize_model(blob[:6] + bytes([code]) + blob[7:])


@st.composite
def _models(draw):
    arch = ArchitectureSpec(
        draw(st.integers(1, 6)),
        tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))),
        draw(st.integers(2, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return Model(arch, rng.normal(size=arch.parameter_count()))


@settings(max_examples=30, deadline=None)
@given(model=_models())
def test_checkpoint_round_trips_and_rejects_truncation_and_header_flips(model):
    blob = nn.serialize_model(model)
    restored = nn.deserialize_model(blob)
    assert restored.arch == model.arch
    assert restored.params.tobytes() == model.params.tobytes()
    for length in range(len(blob)):
        with pytest.raises(ValueError):
            nn.deserialize_model(blob[:length])
    header_len = 8 + 4 * len(model.arch.layer_widths)
    for byte in range(header_len):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[byte] ^= 1 << bit
            with pytest.raises(ValueError):
                nn.deserialize_model(bytes(flipped))
