"""Tests for the conditional flow-matching toy: objective identities,
exact gradients vs finite differences, sampler conventions, and file
round trips. The long default-config training runs live in the
acceptance suite."""

import hashlib
import os
import re
import resource
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from scotkit import codec, flowmatch
from scotkit.codec import interleave
from scotkit.flowmatch import (
    DEFAULT_EMBED_DIM,
    StepBuffers,
    TrainConfig,
    VelocityModel,
    _integrate,
    box_union_sampler,
    embed_instruction,
    in_box_fraction,
    interpolate,
    load_checkpoint,
    loss_and_grad_at,
    mixture_sampler,
    sample,
    save_checkpoint,
    save_loss_curve,
    target_velocity,
    train,
)
from scotkit.geometry import CANVAS, BBox


def randomized_model(d=2, m=5, width=8, seed=3) -> VelocityModel:
    """Model with every parameter nonzero (init zeroes the output layer,
    which would make a finite-difference check vacuous there)."""
    model = VelocityModel.init(d=d, m=m, width=width, seed=seed)
    rng = np.random.default_rng(seed + 100)
    model.params[:] = rng.standard_normal(model.params.size) * 0.5
    return model


def single_box_instruction(box=BBox(460, 460, 540, 540)):
    return interleave("a red apple on a table", [("apple", box)])


def float64_reference(model, e, n_samples, n_steps=50, seed=0):
    """Euler loop in float64 throughout, with the whole (x_t, t, e) input
    in one first-layer matmul."""
    x = np.random.default_rng(seed).standard_normal((n_samples, model.d))
    e = np.broadcast_to(e, (n_samples, model.m))
    dt = 1.0 / n_steps
    for k in range(n_steps):
        z = np.concatenate([x, np.full((n_samples, 1), 1.0 - k * dt), e], axis=1)
        h1 = np.tanh(z @ model.w1.T + model.b1)
        h2 = np.tanh(h1 @ model.w2.T + model.b2)
        x = x - dt * (h2 @ model.w3.T + model.b3)
    return x


# the toy golden run's instruction and model (tests/test_golden.py)
TWO_BOXES = ("a red box <|box|>100,120,300,400<|/box|> left of a blue mug "
             "<|box|>600,500,900,800<|/box|>")


@pytest.fixture(scope="module")
def golden():
    instruction = codec.parse_instruction(TWO_BOXES)
    config = TrainConfig(steps=25)
    model, _ = train(config, box_union_sampler(instruction, m=config.m))
    return model, embed_instruction(instruction, m=model.m)


class TestInterpolate:
    def test_endpoints_exact(self):
        x0 = np.array([0.3, -1.2])
        x1 = np.array([2.0, 0.5])
        assert np.array_equal(interpolate(x0, x1, 0.0), x0)
        assert np.array_equal(interpolate(x0, x1, 1.0), x1)

    def test_quarter_point(self):
        got = interpolate(np.array([0.0, 0.0]), np.array([1.0, 2.0]), 0.25)
        assert np.allclose(got, [0.25, 0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^\(2,\) vs \(3,\)$"):
            interpolate(np.zeros(2), np.zeros(3), 0.5)


class TestTargetVelocity:
    def test_zero_for_equal_endpoints(self):
        x = np.array([0.4, 0.7])
        assert np.array_equal(target_velocity(x, x), np.zeros(2))

    def test_difference(self):
        assert np.array_equal(
            target_velocity(np.array([0.0, 0.0]), np.array([1.0, 2.0])), [1.0, 2.0]
        )

    def test_mismatch(self):
        with pytest.raises(ValueError, match=r"^\(2,\) vs \(4,\)$"):
            target_velocity(np.zeros(2), np.zeros(4))


class TestEmbedding:
    def test_deterministic(self):
        instr = single_box_instruction()
        a = embed_instruction(instr, m=16)
        b = embed_instruction(instr, m=16)
        assert np.array_equal(a, b)

    def test_box_changes_embedding(self):
        a = embed_instruction(single_box_instruction(BBox(100, 100, 400, 400)), m=16)
        b = embed_instruction(single_box_instruction(BBox(600, 600, 900, 900)), m=16)
        assert not np.allclose(a, b)


class TestDataSamplers:
    def test_an_instruction_without_boxes_is_rejected(self):
        with pytest.raises(ValueError, match="instruction has no boxes"):
            box_union_sampler(interleave("an empty scene", []))

    def test_mixture_rows_keep_each_point_with_its_own_embedding(self):
        left, right = BBox(0, 0, 400, 1000), BBox(600, 0, 1000, 1000)
        instrs = [single_box_instruction(left), single_box_instruction(right)]
        x0, e = mixture_sampler([box_union_sampler(i, m=8) for i in instrs])(
            np.random.default_rng(0), 200)
        on_left = x0[:, 0] <= 0.4
        assert 0 < on_left.sum() < 200 and np.all(on_left | (x0[:, 0] >= 0.6))
        for rows, instr in ((on_left, instrs[0]), (~on_left, instrs[1])):
            assert np.array_equal(e[rows], np.broadcast_to(embed_instruction(instr, m=8), e[rows].shape))


class TestLossAndGrad:
    def test_zero_loss_with_zero_head_and_matched_endpoints(self):
        model = VelocityModel.init(d=2, m=4, width=8, seed=0)  # w3 = b3 = 0
        x0 = np.array([[0.2, 0.4], [0.6, 0.1]])
        e = np.zeros((2, 4))
        t = np.array([0.3, 0.9])
        buf = StepBuffers(model, 2, backward=True)
        loss, _ = loss_and_grad_at(model, x0, x0.copy(), t, e, buf)  # x1 = x0 -> u = 0
        assert loss == 0.0

    def test_batch_duplication_invariance(self):
        model = randomized_model()
        instr = single_box_instruction()
        e = embed_instruction(instr, m=5)
        x0 = np.array([[0.5, 0.5], [0.48, 0.52]])
        es = np.stack([e, e])
        rng = np.random.default_rng(8)
        x1 = rng.standard_normal(x0.shape)
        t = rng.uniform(0.0, 1.0, size=2)
        loss_once, _ = loss_and_grad_at(model, x0, x1, t, es, StepBuffers(model, 2, backward=True))
        # duplicating the batch with the same per-element draws keeps the mean
        loss_dup, _ = loss_and_grad_at(
            model,
            np.concatenate([x0, x0]),
            np.concatenate([x1, x1]),
            np.concatenate([t, t]),
            np.concatenate([es, es]),
            StepBuffers(model, 4, backward=True),
        )
        assert loss_dup == pytest.approx(loss_once, rel=1e-12)

    def test_batch_other_than_the_buffers_is_rejected(self):
        # a batch of 1 would broadcast into buffers of 4 and scale the gradient wrongly
        model = randomized_model()
        x0, t, e = np.zeros((1, 2)), np.zeros(1), np.zeros((1, 5))
        with pytest.raises(ValueError, match="^batch of 1 for buffers of 4$"):
            loss_and_grad_at(model, x0, x0, t, e, StepBuffers(model, 4, backward=True))

    @pytest.mark.parametrize("d,m,width", [(2, 5, 8), (2, 16, 12), (3, 4, 6)])
    def test_gradient_matches_finite_differences(self, d, m, width):
        model = randomized_model(d=d, m=m, width=width)
        rng = np.random.default_rng(17)
        batch_size = 4
        x0 = rng.uniform(0.2, 0.8, size=(batch_size, d))
        x1 = rng.standard_normal((batch_size, d))
        t = rng.uniform(0.0, 1.0, size=batch_size)
        e = rng.standard_normal((batch_size, m))
        buf = StepBuffers(model, batch_size, backward=True)
        _, grad = loss_and_grad_at(model, x0, x1, t, e, buf)
        flat_grad = grad.copy()  # the next call with buf overwrites grad
        flat = model.params
        h = 1e-5
        indices = rng.choice(flat.size, size=20, replace=False)
        for idx in indices:
            bumped = flat.copy()
            bumped[idx] += h
            up, _ = loss_and_grad_at(VelocityModel(d, m, width, bumped), x0, x1, t, e, buf)
            bumped[idx] -= 2 * h
            down, _ = loss_and_grad_at(VelocityModel(d, m, width, bumped), x0, x1, t, e, buf)
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(flat_grad[idx]), 1e-8)
            assert abs(numeric - flat_grad[idx]) / denom <= 1e-4

    @pytest.mark.parametrize("d,m,width", [(2, 5, 8), (2, 16, 12), (3, 4, 6)])
    def test_gradient_for_one_condition_matches_finite_differences(self, d, m, width):
        model = randomized_model(d=d, m=m, width=width)
        rng = np.random.default_rng(19)
        batch_size = 4
        x0 = rng.uniform(0.2, 0.8, size=(batch_size, d))
        x1 = rng.standard_normal((batch_size, d))
        t = rng.uniform(0.0, 1.0, size=batch_size)
        e = rng.standard_normal(m)
        buf = StepBuffers(model, batch_size, backward=True)
        _, grad = loss_and_grad_at(model, x0, x1, t, e, buf)
        flat_grad = grad.copy()
        h = 1e-5
        # every condition column of w1, whose gradient is gb1 e^T, and a sample of the rest
        cols = np.arange(d + 1, d + 1 + m)
        w1_cond = (np.arange(width)[:, None] * (d + 1 + m) + cols).ravel()
        others = rng.choice(model.params.size, size=20, replace=False)
        for idx in np.concatenate([w1_cond, others]):
            bumped = model.params.copy()
            bumped[idx] += h
            up, _ = loss_and_grad_at(VelocityModel(d, m, width, bumped), x0, x1, t, e, buf)
            bumped[idx] -= 2 * h
            down, _ = loss_and_grad_at(VelocityModel(d, m, width, bumped), x0, x1, t, e, buf)
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(flat_grad[idx]), 1e-8)
            assert abs(numeric - flat_grad[idx]) / denom <= 1e-4

    def test_one_condition_matches_it_repeated_per_row(self):
        model = randomized_model(m=16, width=12)
        rng = np.random.default_rng(23)
        x0, x1 = rng.uniform(size=(6, 2)), rng.standard_normal((6, 2))
        t, e = rng.uniform(size=6), rng.standard_normal(16)
        buf = StepBuffers(model, 6, backward=True)
        loss_one, grad = loss_and_grad_at(model, x0, x1, t, e, buf)
        grad_one = grad.copy()
        loss_rows, grad_rows = loss_and_grad_at(model, x0, x1, t, np.tile(e, (6, 1)), buf)
        assert loss_one == pytest.approx(loss_rows, rel=1e-12)
        assert np.allclose(grad_one, grad_rows, rtol=1e-12, atol=1e-12 * np.abs(grad_rows).max())

    @pytest.mark.parametrize("shape", [(6,), (5, 5), (1, 5), (4, 6), (4, 5, 1), ()], ids=str)
    def test_a_condition_of_another_shape_is_rejected(self, shape):
        model = randomized_model()  # m = 5
        x0, t = np.zeros((4, 2)), np.zeros(4)
        e = np.zeros(shape)
        message = rf"^condition of shape {re.escape(str(shape))}, expected \(5,\) or \(4, 5\)$"
        with pytest.raises(ValueError, match=message):
            loss_and_grad_at(model, x0, x0, t, e, StepBuffers(model, 4, backward=True))
        with pytest.raises(ValueError, match=message):
            sample(model, e, 4)


class TestModel:
    def test_flat_params_of_the_wrong_size_are_rejected(self):
        # one too many or one too few
        n = VelocityModel.init(d=2, m=4, width=8, seed=0).params.size
        for size in (n + 1, n - 1):
            with pytest.raises(ValueError, match=f"^expected {n} parameters, got {size}$"):
                VelocityModel(2, 4, 8, np.ones(size))

    def test_the_named_arrays_are_views_of_params(self):
        # one train step moves params, and each view reads the moved values
        names = ("w1", "b1", "w2", "b2", "w3", "b3")
        before = VelocityModel.init(m=8, width=8)
        sampler = box_union_sampler(single_box_instruction(), m=8)
        model, _ = train(TrainConfig(steps=1, batch_size=16, m=8, width=8), sampler)
        assert not np.array_equal(model.params, before.params)
        for m in (before, model):
            assert all(np.shares_memory(getattr(m, name), m.params) for name in names)
            assert np.array_equal(np.concatenate([getattr(m, n).ravel() for n in names]), m.params)


class TestTrain:
    def small_config(self, **kw):
        defaults = dict(steps=5, batch_size=16, m=8, width=8)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_single_step_curve(self):
        instr = single_box_instruction()
        sampler = box_union_sampler(instr, m=8)
        _, curve = train(self.small_config(steps=1), sampler)
        assert len(curve) == 1

    def test_identical_seeds_identical_parameters(self):
        instr = single_box_instruction()
        sampler = box_union_sampler(instr, m=8)
        m1, c1 = train(self.small_config(), sampler)
        m2, c2 = train(self.small_config(), sampler)
        assert c1 == c2
        assert np.array_equal(m1.params, m2.params)

    def test_steps_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_validation(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=batch_size)

    @pytest.mark.parametrize("learning_rate", [0.0, -0.1, float("nan"), float("inf")])
    def test_learning_rate_validation(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=learning_rate)

    @pytest.mark.parametrize("batch_size", [256, 1024])
    def test_memory_is_the_model_its_gradient_and_one_batch_of_buffers(self, batch_size):
        # a step's own arrays, at most eight live at once, hold (batch, d)
        # or (batch,) values, and numpy's ufunc iterator buffers 8192 values;
        # a (batch, width) temporary would add 8 * batch * width bytes,
        # 256 KiB at batch 256
        config = TrainConfig(steps=20, batch_size=batch_size)
        sampler = box_union_sampler(single_box_instruction())
        train(config, sampler)
        tracemalloc.start()
        try:
            model, _ = train(config, sampler)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        d, width = model.d, model.width
        buffers = 8 * batch_size * (d + 1 + 3 * width + d)
        step = 8 * 8 * batch_size * d + 8 * 8192
        assert peak <= 8 * 2 * model.params.size + buffers + step + 2**14


class TestSample:
    def test_zero_field_returns_initial_noise(self):
        model = VelocityModel.init(d=2, m=4, width=8, seed=0)  # zero head
        e = np.zeros(4)
        got = sample(model, e, n_samples=50, n_steps=10, seed=9)
        expected = np.random.default_rng(9).standard_normal((50, 2))
        assert np.array_equal(got, expected)

    def test_constant_field_displaces_exactly(self):
        # velocity == b3 everywhere -> each of the 50 Euler steps subtracts
        # the float32 step dt * b3 from the float64 noise
        model = VelocityModel.init(d=2, m=4, width=8, seed=0)
        model.w1[...] = 0.0
        model.b3[...] = [0.7, -0.3]
        e = np.zeros(4)
        got = sample(model, e, n_samples=20, n_steps=50, seed=11)
        want = np.random.default_rng(11).standard_normal((20, 2))
        step = np.float32(1 / 50) * model.b3.astype(np.float32)
        for _ in range(50):
            want = want - step
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("per_row", [False, True])
    def test_matches_the_whole_input_reference(self, per_row):
        model = randomized_model(m=16, width=32)
        rng = np.random.default_rng(29)
        e = rng.standard_normal((40, 16) if per_row else 16)
        n_steps = 20
        got = sample(model, e, 40, n_steps=n_steps, seed=4)
        want = float64_reference(model, e, 40, n_steps, seed=4)
        # each step reads the state and writes its velocity rounded to
        # float32, a relative error of at most eps of the points' scale,
        # and the steps' errors add up
        scale = max(1.0, np.abs(want).max())
        assert np.allclose(got, want, rtol=0, atol=n_steps * np.finfo(np.float32).eps * scale)

    def test_n_steps_validation(self):
        with pytest.raises(ValueError):
            sample(randomized_model(), np.zeros(5), 1, n_steps=0)

    def test_n_samples_validation(self):
        with pytest.raises(ValueError, match="n_samples must be >= 0, got -1"):
            sample(randomized_model(), np.zeros(5), -1)

    def test_seed_validation(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            sample(randomized_model(), np.zeros(5), 1, seed=-1)


def on_cpus(monkeypatch, cpus: int) -> None:
    """Makes `sample` see `cpus` CPUs and a single-threaded BLAS, as in a
    process that imported flowmatch before numpy."""
    monkeypatch.setattr(flowmatch, "_ONE_BLAS_THREAD", True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


class TestSampleWorkers:
    """`sample` integrates fixed 1000-row blocks, with shares of them on
    one thread per CPU; the points depend on n alone."""

    # sha256 of the points' bytes, recorded when sampling began evaluating
    # the field in float32; each equals one call over all rows
    GOLDEN_POINTS = {
        1000: "0f7a00ad30a38eef178046a2ffc898aef94980e0cc054137b06aba93864cbf78",
        4000: "790bc271e647f4c41c86da8c4a783e77119377b123068716c3670db24d1f123b",
    }

    def shares(self, monkeypatch, cpus):
        """Runs `sample` on `cpus` CPUs, recording each share's row bounds
        and whether it ran on the calling thread."""
        on_cpus(monkeypatch, cpus)
        seen = []

        def recording(model, x, term, n_steps, lo, hi):
            seen.append((lo, hi, threading.current_thread() is threading.main_thread()))
            _integrate(model, x, term, n_steps, lo, hi)

        monkeypatch.setattr(flowmatch, "_integrate", recording)
        return seen

    @pytest.fixture()
    def short_switch_interval(self):
        # threads trade the interpreter lock often, so shares that wrote
        # each other's rows would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n", [0, 1, 999, 1000, 1001, 2500, 4000])
    @pytest.mark.parametrize("per_row", [False, True])
    def test_the_bytes_do_not_depend_on_the_cpu_count(self, monkeypatch, golden, short_switch_interval,
                                                      n, per_row):
        model, e = golden
        if per_row:
            e = np.random.default_rng(n).standard_normal((n, model.m)) * 0.3
        points = []
        for cpus in (1, 2, 3):
            seen = self.shares(monkeypatch, cpus)
            points.append(sample(model, e, n, n_steps=10, seed=5).tobytes())
            blocks = -(-n // 1000)
            assert len(seen) == max(1, min(cpus, blocks))
            assert [main for _, _, main in seen].count(True) == 1
            bounds = sorted((lo, hi) for lo, hi, _ in seen)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            assert all(lo % 1000 == 0 for lo, _ in bounds)
        assert points[0] == points[1] == points[2]

    @pytest.mark.parametrize("n", sorted(GOLDEN_POINTS))
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_whole_blocks_keep_the_one_call_bytes(self, monkeypatch, golden, n, cpus):
        model, e = golden
        on_cpus(monkeypatch, cpus)
        points = sample(model, e, n)
        assert hashlib.sha256(points.tobytes()).hexdigest() == self.GOLDEN_POINTS[n]

    @pytest.mark.parametrize("n", sorted(GOLDEN_POINTS))
    def test_the_golden_bytes_are_one_call_over_all_rows(self, monkeypatch, golden, n):
        model, e = golden
        monkeypatch.setattr(flowmatch, "_SAMPLE_BLOCK", n)
        points = sample(model, e, n)
        assert hashlib.sha256(points.tobytes()).hexdigest() == self.GOLDEN_POINTS[n]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_memory_is_the_points_and_one_block_of_buffers_per_thread(self, monkeypatch, cpus):
        # a step that allocated a (block, width) temporary would add 0.5 MB
        # in float32, 1 MB in float64
        model, e = VelocityModel.init(), np.zeros(DEFAULT_EMBED_DIM)
        on_cpus(monkeypatch, cpus)
        sample(model, e, 4000, n_steps=3)
        tracemalloc.start()
        try:
            sample(model, e, 4000, n_steps=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        field = 4 * model.params.size
        buffers = 4 * 1000 * (model.d + 1 + 2 * model.width + model.d)
        assert peak <= 8 * 4000 * model.d + field + cpus * (buffers + 2**17)

    def test_an_error_in_another_share_reaches_the_caller(self, monkeypatch):
        on_cpus(monkeypatch, 2)
        forward = flowmatch._forward

        def failing_off_the_main_thread(model, buf, term):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("share failed")
            return forward(model, buf, term)

        monkeypatch.setattr(flowmatch, "_forward", failing_off_the_main_thread)
        model = randomized_model(m=4, width=8)
        with pytest.raises(RuntimeError, match="^share failed$"):
            sample(model, np.zeros(4), 2500, n_steps=3)
        # one share runs on the calling thread alone
        assert sample(model, np.zeros(4), 1000, n_steps=3).shape == (1000, 2)

    def test_an_overflow_in_another_share_is_counted_quietly(self, monkeypatch, recwarn):
        on_cpus(monkeypatch, 3)
        model = randomized_model(m=4, width=8)
        # every hidden unit reads tanh(1), so every row's velocity, 8 * 0.76e38,
        # overflows float32 though each weight fits it
        model.w2[...], model.b2[...], model.w3[...] = 0.0, 1.0, 1e38
        with pytest.raises(ValueError, match="^sampling diverged: 2500 of 2500 points are not finite$"):
            sample(model, np.zeros(4), 2500, n_steps=3)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_a_model_float32_cannot_hold_is_rejected_before_the_points(self, monkeypatch, recwarn):
        on_cpus(monkeypatch, 3)
        model = randomized_model(m=4, width=8)
        model.w2[...], model.b2[...], model.w3[...] = 0.0, 1.0, 1e308
        message = ("^sampling evaluates the model in float32, which holds magnitudes up to 3.402823e\\+38; "
                   "the model has a parameter of magnitude 1e\\+308$")
        # 10**12 points would not fit in memory, so the check comes first
        for n in (2500, 10**12):
            with pytest.raises(ValueError, match=message):
                sample(model, np.zeros(4), n, n_steps=3)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_a_condition_term_beyond_float32_saturates_quietly(self, recwarn):
        # w1's condition columns fit float32; their term, 4 * 3e38, does not,
        # and tanh reads 1 from it in either precision
        model = randomized_model(m=4, width=8)
        model.w1[:, model.d + 1 :] = 3e38
        e = np.ones(4)
        got = sample(model, e, 30, n_steps=5, seed=2)
        want = float64_reference(model, e, 30, n_steps=5, seed=2)
        assert np.allclose(got, want, rtol=0, atol=5 * np.finfo(np.float32).eps * max(1.0, np.abs(want).max()))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestFloat32Field:
    """`sample` evaluates the field in float32 and keeps the points in
    float64; its points stay within 1e-6 of a float64 evaluation, and
    the in-box fractions are those of float64."""

    # the bench's toy instruction at each of seeds 1-3 (bench/workloads.py),
    # with its in-box fractions at sample seeds 0 and 1
    BENCH_INSTRUCTIONS = {
        1: ("A scene with a yellow sofa <|box|>768,650,965,887<|/box|> , a yellow stool "
            "<|box|>242,104,453,467<|/box|> , a red candle <|box|>569,182,797,398<|/box|> , a green rug "
            "<|box|>558,291,829,513<|/box|> , a red shoe <|box|>253,29,643,362<|/box|> and a small mirror "
            "<|box|>209,408,513,493<|/box|> .", (0.804, 0.81775)),
        2: ("A scene with a green mug <|box|>537,341,777,478<|/box|> , a shiny stool "
            "<|box|>162,122,525,222<|/box|> , a wooden radio <|box|>252,240,536,599<|/box|> , a shiny lamp "
            "<|box|>209,843,409,995<|/box|> and a shiny kite <|box|>328,76,720,400<|/box|> .", (0.84275, 0.853)),
        3: ("A scene with a red radio <|box|>776,605,868,746<|/box|> , a red kite "
            "<|box|>275,484,489,559<|/box|> and a shiny rug <|box|>590,455,868,717<|/box|> .", (0.795, 0.80425)),
    }

    def test_the_golden_points_stay_within_1e_6_of_float64(self, golden):
        model, e = golden
        instruction = codec.parse_instruction(TWO_BOXES)
        got = sample(model, e, 4000)
        want = float64_reference(model, e, 4000)
        assert got.dtype == np.float64
        assert np.abs(got - want).max() <= 1e-6
        assert in_box_fraction(got, instruction) == in_box_fraction(want, instruction)

    @pytest.mark.parametrize("bench_seed", sorted(BENCH_INSTRUCTIONS))
    def test_the_bench_in_box_fractions_are_those_of_float64(self, bench_seed):
        # the bench's toy train and samples: 1000 steps at batch 256, 4000 points, 50 steps
        text, fractions = self.BENCH_INSTRUCTIONS[bench_seed]
        instruction = codec.parse_instruction(text)
        config = TrainConfig(steps=1000)
        model, _ = train(config, box_union_sampler(instruction, m=config.m))
        e = embed_instruction(instruction, m=model.m)
        for seed, fraction in enumerate(fractions):
            got = sample(model, e, 4000, seed=seed)
            want = float64_reference(model, e, 4000, seed=seed)
            assert np.abs(got - want).max() <= 1e-6
            assert in_box_fraction(got, instruction) == in_box_fraction(want, instruction) == fraction


def _minor_faults(call) -> int:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


class TestStepsReuseBuffers:
    """A step that allocates fresh (batch, width) arrays lets the heap be
    trimmed and faulted in again every step, hundreds of minor page
    faults a step at these sizes; a step that reuses one call's buffers
    takes none. Faults are compared between two step counts after a
    warm-up call at each, so the per-call set-up cancels: malloc moves
    its mmap threshold when it frees a call's buffers, and can place the
    next call's on fresh heap pages once."""

    MAX_FAULTS_PER_EXTRA_STEP = 20

    def faults_per_extra_step(self, run, few, many):
        run(few)
        run(many)
        extra = _minor_faults(lambda: run(many)) - _minor_faults(lambda: run(few))
        return extra / (many - few)

    def test_train(self):
        sampler = box_union_sampler(single_box_instruction())

        def run(steps):
            train(TrainConfig(steps=steps, batch_size=256), sampler)

        assert self.faults_per_extra_step(run, 10, 50) <= self.MAX_FAULTS_PER_EXTRA_STEP

    def test_sample(self):
        model = randomized_model(m=64, width=128)
        e = embed_instruction(single_box_instruction())

        def run(n_steps):
            sample(model, e, 4000, n_steps=n_steps, seed=0)

        assert self.faults_per_extra_step(run, 2, 12) <= self.MAX_FAULTS_PER_EXTRA_STEP


class TestInBoxFraction:
    def test_all_at_center(self):
        instr = single_box_instruction(BBox(400, 400, 600, 600))
        pts = np.tile([0.5, 0.5], (10, 1))
        assert in_box_fraction(pts, instr) == 1.0

    def test_no_boxes(self):
        instr = interleave("an empty scene", [])
        assert in_box_fraction(np.zeros((5, 2)), instr) == 0.0

    def test_edge_within_tolerance(self):
        instr = single_box_instruction(BBox(400, 400, 600, 600))
        within = np.array([[0.4 - 0.019, 0.5], [0.6 + 0.019, 0.5]])
        beyond = np.array([[0.4 - 0.021, 0.5], [0.6 + 0.021, 0.5]])
        assert in_box_fraction(within, instr) == 1.0
        assert in_box_fraction(beyond, instr) == 0.0

    @staticmethod
    def reference(samples, instruction):
        """One box at a time, its corners divided in Python floats."""
        boxes = instruction.boxes
        pts = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        if not boxes or pts.shape[0] == 0:
            return 0.0
        tolerance = 0.02
        inside = np.zeros(pts.shape[0], dtype=bool)
        for b in boxes:
            x1, y1, x2, y2 = (v / CANVAS for v in b.as_list())
            hit = (
                (pts[:, 0] >= x1 - tolerance)
                & (pts[:, 0] <= x2 + tolerance)
                & (pts[:, 1] >= y1 - tolerance)
                & (pts[:, 1] <= y2 + tolerance)
            )
            inside |= hit
        return float(inside.mean())

    @staticmethod
    def edge_points(instruction):
        """Points on each box's dilated edges, computed as the reference
        computes them, and one ulp outside each."""
        pts = []
        for b in instruction.boxes:
            x1, y1, x2, y2 = (v / CANVAS for v in b.as_list())
            lo_x, hi_x, lo_y, hi_y = x1 - 0.02, x2 + 0.02, y1 - 0.02, y2 + 0.02
            mid_x, mid_y = (x1 + x2) / 2, (y1 + y2) / 2
            for x in (lo_x, np.nextafter(lo_x, -1.0), hi_x, np.nextafter(hi_x, 2.0)):
                pts.append([x, mid_y])
            for y in (lo_y, np.nextafter(lo_y, -1.0), hi_y, np.nextafter(hi_y, 2.0)):
                pts.append([mid_x, y])
            pts += [[lo_x, lo_y], [hi_x, hi_y], [np.nextafter(lo_x, -1.0), lo_y],
                    [hi_x, np.nextafter(hi_y, 2.0)]]
        return np.array(pts, dtype=np.float64).reshape(-1, 2)

    @pytest.mark.parametrize("boxes", [
        [],
        [BBox(400, 400, 600, 600)],
        [BBox(10, 20, 130, 170), BBox(333, 517, 401, 999), BBox(700, 3, 997, 290)],
        [BBox(100, 100, 500, 500), BBox(300, 300, 700, 650), BBox(310, 90, 330, 900)],
    ], ids=["none", "one", "three", "overlapping"])
    def test_matches_the_per_box_loop(self, boxes):
        words = ["a", "cat", "a", "dog", "a", "hat", "by", "the", "door"]
        instr = interleave(" ".join(words), list(zip(["cat", "dog", "hat"], boxes)))
        assert list(instr.boxes) == boxes
        random = np.random.default_rng(41).uniform(-0.1, 1.1, size=(500, 2))
        edges = self.edge_points(instr)
        assert edges.shape[0] == 12 * len(boxes)
        for pts in (random, edges):
            assert in_box_fraction(pts, instr) == self.reference(pts, instr)
            got = [in_box_fraction(p, instr) for p in pts]
            assert got == [self.reference(p, instr) for p in pts]


class TestFiles:
    def test_checkpoint_round_trip(self, tmp_path):
        model = randomized_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, meta={"seeds": [0, 1, 2]})
        loaded, meta = load_checkpoint(path)
        assert np.array_equal(loaded.params, model.params)
        assert (loaded.d, loaded.m, loaded.width) == (model.d, model.m, model.width)
        assert meta == {"seeds": [0, 1, 2]}

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, randomized_model(), meta={})
        save_checkpoint(b, randomized_model(), meta={})
        assert a.read_bytes() == b.read_bytes()

    def test_loss_curve_round_trip(self, tmp_path):
        curve = [2.5, 1.25, 0.8125]
        path = tmp_path / "curve.txt"
        save_loss_curve(path, curve)
        rows = [line.split() for line in path.read_text(encoding="utf-8").splitlines()]
        assert [(int(step), float(value)) for step, value in rows] == list(enumerate(curve))
