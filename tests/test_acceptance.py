"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line at its stated tolerance. Run with `pytest -s` to see the
lines; the assertions carry the same bounds either way.

The long flow-matching criteria share module-scoped training runs so
the whole suite stays well inside its time budget.
"""

import json
import random
import time

import numpy as np
import pytest

from scotkit import codec, constraints, dataset, flowmatch, metrics, planner, render
from scotkit.client import ClientConfig, request_plan
from scotkit.geometry import BBox, iou

from conftest import in_daemon_thread, on_daemon_threads, synth_satisfiable_spec
from test_codec import random_caption_and_entities, unless_colliding
from test_constraints import oracle_satisfied, random_case
from test_geometry import random_box, raster_iou


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert passed, f"{criterion}: {detail}"


class TestCriterion1CodecRoundTrip:
    def test_500_randomized_round_trips(self):
        rng = random.Random(2024)
        start = time.time()
        done = 0
        while done < 500:
            caption, entities = random_caption_and_entities(rng)
            try:
                instr = codec.interleave(caption, entities)
            except ValueError as exc:
                unless_colliding(exc)
                continue
            done += 1
            recovered = codec.parse_instruction(codec.serialize(instr))
            assert recovered.boxes == instr.boxes
            assert [e.span[1] for e in recovered.entities] == [
                e.span[1] for e in instr.entities
            ]
        elapsed = time.time() - start
        report("1 codec round trip", elapsed < 5.0, f"500 round trips in {elapsed:.2f}s")


class TestCriterion2GoldenFixtures:
    def test_all_seven_examples(self, golden_examples):
        for i, raw in enumerate(golden_examples, start=1):
            out = planner.parse_planner_output(raw)
            instr = planner.to_instruction(out)
            recovered = codec.parse_instruction(codec.serialize(instr))
            expected = [box for _, box in out.objects]
            assert recovered.boxes == expected, f"example {i} box mismatch"
        report("2 appendix golden fixtures", True, "7/7 examples convert and round-trip")


class TestCriterion3GeometryOracle:
    def test_analytic_equals_raster_on_200_pairs(self):
        rng = random.Random(77)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            analytic = iou(a, b)
            raster = raster_iou(a, b)
            assert analytic == raster, f"{a} vs {b}: {analytic} != {raster}"
        report("3 geometry oracle", True, "200/200 exact matches")


class TestCriterion4ConstraintOracle:
    def test_oracle_agreement_on_100_cases(self):
        rng = random.Random(4242)
        disagreements = 0
        for _ in range(100):
            layout, cats, cons = random_case(rng)
            for con in cons:
                violated = bool(constraints.check(layout, cats, [con]))
                if violated == oracle_satisfied(con, layout, cats):
                    disagreements += 1
        report("4 constraint oracle", disagreements == 0, f"{disagreements} disagreements")


class TestCriterion5PlannerConvergence:
    def test_fifty_satisfiable_specs(self):
        start = time.time()
        solved = 0
        for seed in range(50):
            spec = synth_satisfiable_spec(seed)
            assert len(spec.entities) <= 13
            trace: list[float] = []
            result = planner.repair(
                planner.propose_initial(spec, seed), spec, max_iters=200, _trace=trace
            )
            assert all(b <= a for a, b in zip(trace, trace[1:])), (
                "objective increased across accepted moves"
            )
            if not result.residual:
                solved += 1
        elapsed = time.time() - start
        report(
            "5 planner convergence",
            solved >= 45 and elapsed < 30.0,
            f"{solved}/50 solved in {elapsed:.2f}s",
        )


class TestCriterion6MetricsExactness:
    def test_hand_derived_corpus(self):
        full = BBox(0, 0, 100, 100)

        def frac_box(f):
            return BBox(0, 0, 100, int(100 * f))

        s1 = metrics.EvalSample(
            id="s1",
            references=(("cat", full), ("dog", full)),
            predictions=(("cat", full), ("dog", frac_box(0.6))),
        )
        s2 = metrics.EvalSample(
            id="s2", references=(("cat", full),), predictions=(("cat", frac_box(0.3)),)
        )
        r = metrics.evaluate([s1, s2], iou_threshold=0.5)
        exact = (r.sr, r.isr, r.miou) == (50.00, 66.67, 63.33)
        report("6 metrics exactness", exact, f"SR={r.sr} I-SR={r.isr} mIoU={r.miou}")

    def test_invariants_on_100_random_corpora(self):
        rng = random.Random(606)
        cats = ["a", "b", "c"]

        def rand_box():
            x1, y1 = rng.randint(0, 900), rng.randint(0, 900)
            return BBox(x1, y1, rng.randint(x1 + 1, 1000), rng.randint(y1 + 1, 1000))

        for _ in range(100):
            n_refs = rng.randint(1, 4)  # uniform per corpus; see ledger
            samples = [
                metrics.EvalSample(
                    id=f"s{i}",
                    references=tuple((rng.choice(cats), rand_box()) for _ in range(n_refs)),
                    predictions=tuple(
                        (rng.choice(cats), rand_box()) for _ in range(rng.randint(0, 4))
                    ),
                )
                for i in range(rng.randint(1, 5))
            ]
            lo = metrics.evaluate(samples, iou_threshold=0.3)
            hi = metrics.evaluate(samples, iou_threshold=0.7)
            assert 0.0 <= lo.sr <= lo.isr <= 100.0
            assert 0.0 <= hi.sr <= hi.isr <= 100.0
            assert hi.sr <= lo.sr and hi.isr <= lo.isr
            assert hi.miou == lo.miou
        report("6 metrics invariants", True, "SR<=I-SR and threshold monotonicity on 100 corpora")


# --- criterion 7: shared training runs --------------------------------

SINGLE_BOX = BBox(460, 460, 540, 540)
SEED_SETS = ((0, 1, 2), (10, 11, 12), (20, 21, 22))


@pytest.fixture(scope="module")
def single_box_runs():
    instr = codec.interleave("a red apple on a table", [("apple", SINGLE_BOX)])
    sampler = flowmatch.box_union_sampler(instr)
    runs = []
    start = time.time()
    for init_seed, data_seed, noise_seed in SEED_SETS:
        config = flowmatch.TrainConfig(
            init_seed=init_seed, data_seed=data_seed, noise_seed=noise_seed
        )
        model, curve = flowmatch.train(config, sampler)
        runs.append((model, curve))
    return instr, runs, time.time() - start


class TestCriterion7FlowMatching:
    def test_a_endpoint_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x0 = rng.standard_normal(2)
            x1 = rng.standard_normal(2)
            assert np.array_equal(flowmatch.interpolate(x0, x1, 0.0), x0)
            assert np.array_equal(flowmatch.interpolate(x0, x1, 1.0), x1)
        report("7a endpoint identities", True, "exact at t=0 and t=1")

    def test_b_gradient_check(self):
        rng = np.random.default_rng(41)
        worst = 0.0
        for d, m, width in [(2, 8, 16), (2, 64, 128), (3, 16, 32)]:
            model = flowmatch.VelocityModel.init(d=d, m=m, width=width, seed=1)
            model.params[:] = rng.standard_normal(model.params.size) * 0.5
            x0 = rng.uniform(0.2, 0.8, size=(4, d))
            x1 = rng.standard_normal((4, d))
            t = rng.uniform(0, 1, size=4)
            e = rng.standard_normal((4, m))
            buf = flowmatch.StepBuffers(model, 4, backward=True)
            _, grad = flowmatch.loss_and_grad_at(model, x0, x1, t, e, buf)
            flat_grad = grad.copy()  # the next call with buf overwrites grad
            flat = model.params
            h = 1e-5
            for idx in rng.choice(flat.size, size=20, replace=False):
                bumped = flat.copy()
                bumped[idx] += h
                probe = flowmatch.VelocityModel(d, m, width, bumped)
                up, _ = flowmatch.loss_and_grad_at(probe, x0, x1, t, e, buf)
                bumped[idx] -= 2 * h
                probe = flowmatch.VelocityModel(d, m, width, bumped)
                down, _ = flowmatch.loss_and_grad_at(probe, x0, x1, t, e, buf)
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(flat_grad[idx]), 1e-8)
                worst = max(worst, abs(numeric - flat_grad[idx]) / denom)
        report("7b gradient check", worst <= 1e-4, f"max relative error {worst:.2e}")

    def test_c_default_training_reduces_loss(self, single_box_runs):
        _, runs, _ = single_box_runs
        ratios = []
        for _, curve in runs:
            first = float(np.mean(curve[:100]))
            last = float(np.mean(curve[-100:]))
            ratios.append(last / first)
        worst = max(ratios)
        report(
            "7c training loss reduction",
            worst <= 0.2,
            "final/first window ratios " + ", ".join(f"{r:.3f}" for r in ratios),
        )

    def test_d_in_box_fraction(self, single_box_runs):
        instr, runs, _ = single_box_runs
        e = flowmatch.embed_instruction(instr)
        fractions = []
        for model, _ in runs:
            samples = flowmatch.sample(model, e, 1000, n_steps=50, seed=5)
            fractions.append(flowmatch.in_box_fraction(samples, instr))
        worst = min(fractions)
        report(
            "7d in-box fraction",
            worst >= 0.8,
            "fractions " + ", ".join(f"{f:.3f}" for f in fractions),
        )

    def test_e_conditioning_swap(self):
        caption = "a red apple on a table"
        instr_a = codec.interleave(caption, [("apple", BBox(100, 100, 400, 400))])
        instr_b = codec.interleave(caption, [("apple", BBox(600, 600, 900, 900))])
        sampler = flowmatch.mixture_sampler(
            [flowmatch.box_union_sampler(instr_a), flowmatch.box_union_sampler(instr_b)]
        )
        model, _ = flowmatch.train(flowmatch.TrainConfig(), sampler)
        e_a = flowmatch.embed_instruction(instr_a)
        e_b = flowmatch.embed_instruction(instr_b)
        own_a = flowmatch.in_box_fraction(
            flowmatch.sample(model, e_a, 1000, seed=5), instr_a
        )
        swap_a = flowmatch.in_box_fraction(
            flowmatch.sample(model, e_b, 1000, seed=5), instr_a
        )
        own_b = flowmatch.in_box_fraction(
            flowmatch.sample(model, e_b, 1000, seed=5), instr_b
        )
        swap_b = flowmatch.in_box_fraction(
            flowmatch.sample(model, e_a, 1000, seed=5), instr_b
        )
        gap_a, gap_b = own_a - swap_a, own_b - swap_b
        report(
            "7e conditioning swap",
            gap_a >= 0.4 and gap_b >= 0.4,
            f"gaps {gap_a:.3f} / {gap_b:.3f}",
        )

    def test_f_suite_time_budget(self, single_box_runs):
        _, _, train_time = single_box_runs
        report("7 time budget", train_time < 150.0, f"3 training runs in {train_time:.1f}s")


# --- criterion 8: client against a local mock ----------------------------


class TestCriterion8ClientBehavior:
    def test_client_contract(self, mock_endpoint, golden_examples, monkeypatch):
        monkeypatch.setenv("SCOT_API_KEY", "k")
        base_url, state = mock_endpoint
        config = ClientConfig(base_url=base_url, model_name="mock")

        state.replies = [golden_examples[0]]
        out = in_daemon_thread(request_plan, config, "a marketplace")
        single_ok = len(out.objects) == 8 and len(state.requests) == 1

        state.replies = ["garbage", golden_examples[1]]
        state.requests.clear()
        out = in_daemon_thread(request_plan, config, "a park")
        retry_ok = len(out.objects) == 5 and len(state.requests) == 2

        state.replies = ["garbage"]
        state.requests.clear()
        strict = ClientConfig(base_url=base_url, model_name="mock", max_retries=1)
        with pytest.raises(ValueError, match="^planner output still invalid after 2 attempts: not valid JSON"):
            in_daemon_thread(request_plan, strict, "anything")
        exhaust_ok = len(state.requests) == 2

        state.replies = [golden_examples[2]]
        state.requests.clear()
        state.max_active = 0
        state.delay = 0.03
        on_daemon_threads([lambda i=i: request_plan(config, f"p{i}") for i in range(32)], 30)
        cap_ok = state.max_active <= config.max_in_flight and len(state.requests) == 32

        report(
            "8 client behavior",
            single_ok and retry_ok and exhaust_ok and cap_ok,
            f"single={single_ok} retry={retry_ok} exhausted={exhaust_ok} "
            f"cap(max_active={state.max_active})={cap_ok}",
        )


class TestCriterion9Determinism:
    def test_plans_datasets_checkpoints_svg(self, tmp_path):
        spec = synth_satisfiable_spec(17)
        plan_bytes = [
            json.dumps(
                planner.plan_to_output(spec, planner.plan(spec, seed=3)).to_dict()
            ).encode()
            for _ in range(2)
        ]
        plans_ok = plan_bytes[0] == plan_bytes[1]

        ds_files = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            dataset.save_records(path, dataset.synth_generate(seed=5, n=30, max_entities=8))
            ds_files.append(path.read_bytes())
        data_ok = ds_files[0] == ds_files[1]

        instr = codec.interleave("a box scene", [("box", BBox(300, 300, 700, 700))])
        ckpts = []
        for name in ("m1.ckpt", "m2.ckpt"):
            cfg = flowmatch.TrainConfig(steps=25, batch_size=32, width=16, m=16)
            model, _ = flowmatch.train(cfg, flowmatch.box_union_sampler(instr, m=16))
            path = tmp_path / name
            flowmatch.save_checkpoint(path, model, meta={"seeds": [0, 1, 2]})
            ckpts.append(path.read_bytes())
        ckpt_ok = ckpts[0] == ckpts[1]

        out = planner.plan_to_output(spec, planner.plan(spec, seed=3))
        svg_ok = render.render_svg(out).encode() == render.render_svg(out).encode()

        report(
            "9 determinism",
            plans_ok and data_ok and ckpt_ok and svg_ok,
            f"plans={plans_ok} datasets={data_ok} checkpoints={ckpt_ok} svg={svg_ok}",
        )
