"""Desk-scale conditional flow matching on 2-D point latents.

The data distribution conditioned on an instruction is uniform over the
union of the instruction's boxes mapped to the unit canvas [0,1]^2. A
small MLP velocity model v(x_t, t, e) is trained to regress the coupling
velocity u = x1 - x0 along the linear path x_t = (1-t) x0 + t x1, with
x1 standard normal and t uniform. Sampling integrates the learned field
with Euler steps from t = 1 (noise) down to t = 0 (data); under this
coupling u points from data toward noise, hence the downward sweep.

Training, the checkpoint and the Euler state are numpy float64.
Sampling evaluates the velocity field from a float32 copy of the model,
made once per `sample` call, and adds each float32 step to the float64
state; a model with a parameter beyond float32's range is rejected.
Everything is seeded, so runs are bitwise reproducible on a given
platform.

Sampling integrates its rows in fixed blocks of `_SAMPLE_BLOCK` rows and
runs shares of the blocks on one thread per CPU. Those threads stand in
for BLAS's own thread pool, so importing this module before numpy holds
OpenBLAS to one thread; where numpy was loaded first, BLAS keeps its
pool and `sample` runs one thread. OpenBLAS's result for a row can
depend on the row count of the call, so the block is fixed: the points
depend on the sample count and never on the CPU count. Counts up to one
block give the bytes of one call over all rows; with OpenBLAS 0.3.31 on
x86-64, whole multiples of a block do too, and other counts may differ
from those by rounding in their last, partial block.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import threading
from typing import Callable, Mapping, Sequence

# BLAS reads its thread count when numpy loads it, so this only holds
# where numpy is not loaded yet
_ONE_BLAS_THREAD = "numpy" not in sys.modules
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import wire
from .codec import InterleavedInstruction
from .geometry import CANVAS
from .wire import Record, assign

DEFAULT_DIM = 2
DEFAULT_EMBED_DIM = 64
DEFAULT_WIDTH = 128


def _as_vec(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def interpolate(x0, x1, t: float | np.ndarray) -> np.ndarray:
    """Linear path point x_t = (1 - t) x0 + t x1; an array t broadcasts against x0."""
    a, b = _as_vec(x0), _as_vec(x1)
    if a.shape != b.shape:
        raise ValueError(f"{a.shape} vs {b.shape}")
    return (1.0 - t) * a + t * b


def target_velocity(x0, x1) -> np.ndarray:
    """Coupling velocity u = x1 - x0, constant along the path."""
    a, b = _as_vec(x0), _as_vec(x1)
    if a.shape != b.shape:
        raise ValueError(f"{a.shape} vs {b.shape}")
    return b - a


# --- condition embedding ------------------------------------------------

_BOX_PROJECTION_TAG = 0x5C07B0C5


def _token_seed(text: str) -> int:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _unit_corners(instruction: InterleavedInstruction) -> np.ndarray:
    """The instruction's boxes on the unit canvas, one (x1, y1, x2, y2) row each."""
    boxes = [b.as_list() for b in instruction.boxes]
    return np.array(boxes, dtype=np.float64).reshape(-1, 4) / CANVAS


def embed_instruction(
    instruction: InterleavedInstruction, m: int = DEFAULT_EMBED_DIM
) -> np.ndarray:
    """Deterministic condition vector: the sum of hash-seeded word-token
    embeddings plus, per coordinate block, the normalized box corners
    projected by a fixed seeded random matrix."""
    e = np.zeros(m, dtype=np.float64)
    # scales keep ||e|| well below the (x, t) input norms, so the
    # constant-per-condition channels never dominate first-layer inputs
    for word in instruction.words:
        rng = np.random.default_rng([0, _token_seed(word)])
        e += 0.02 * rng.standard_normal(m)
    if instruction.entities:
        proj_rng = np.random.default_rng([0, _BOX_PROJECTION_TAG])
        projection = proj_rng.standard_normal((m, 4)) * 0.15
        for v in _unit_corners(instruction):
            e += projection @ v
    return e


# --- velocity model ------------------------------------------------------

def _shapes(d: int, m: int, width: int) -> list[tuple[int, ...]]:
    """Shapes of w1, b1, w2, b2, w3 and b3: the order of `params` and of a checkpoint."""
    return [(width, d + 1 + m), (width,), (width, width), (width,), (d, width), (d,)]


def _views(flat: np.ndarray, d: int, m: int, width: int) -> list[np.ndarray]:
    """w1 ... b3 as views into flat, which must hold exactly their values."""
    shapes = _shapes(d, m, width)
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    if flat.size != ends[-1]:
        raise ValueError(f"expected {ends[-1]} parameters, got {flat.size}")
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


class VelocityModel:
    """Two-hidden-layer tanh MLP mapping (x_t, t, e) -> velocity. Its
    parameters are one float64 vector, `params`, and w1 ... b3 are views
    into it. Not a Record: training updates `params` in place."""

    def __init__(self, d: int, m: int, width: int, params: np.ndarray):
        self.d, self.m, self.width, self.params = d, m, width, params
        self.w1, self.b1, self.w2, self.b2, self.w3, self.b3 = _views(params, d, m, width)

    @classmethod
    def init(cls, d: int = DEFAULT_DIM, m: int = DEFAULT_EMBED_DIM,
             width: int = DEFAULT_WIDTH, seed: int = 0) -> "VelocityModel":
        """Random-feature initialization: first-layer columns are scaled
        per input block (position, time, condition) so threshold features
        over x and t exist from the start — the target field is sharp in
        t, and plain SGD at a fixed small rate cannot grow such weights
        from a standard init within the default step budget. The output
        layer starts at zero, the usual choice for flow heads."""
        rng = np.random.default_rng(seed)
        model = cls(d, m, width, np.zeros(sum(math.prod(s) for s in _shapes(d, m, width))))
        w1 = rng.standard_normal(out=model.w1)
        w1[:, :d] *= 8.0       # position columns
        w1[:, d] *= 20.0       # time column
        w1[:, d + 1 :] *= 0.6  # condition columns
        model.b1[...] = rng.uniform(-3.0, 3.0, size=width)
        model.w2[...] = rng.standard_normal((width, width)) / np.sqrt(width)
        return model


class StepBuffers:
    """The arrays one `train` call, or one thread of a `sample` call,
    overwrites at every step, in the dtype of the model's `params`:
    the input z, which holds (x_t, t), both hidden layers, the output
    and, with `backward`, the backward scratch and one gradient vector
    laid out as the model's `params`, with views of it per parameter.
    Besides its condition term, (width,) for one condition and
    (batch, width) for one per row, a training step allocates only
    arrays of (batch, d) or (batch,) values: the data and noise draws,
    `interpolate`, `target_velocity` and the loss. Sampling runs tanh
    in place and needs no backward pass, so it holds z and only two
    hidden-size arrays."""

    def __init__(self, model: VelocityModel, batch: int, backward: bool):
        dtype = model.params.dtype
        self.z = np.empty((batch, model.d + 1), dtype)
        self.h1 = np.empty((batch, model.width), dtype)
        self.h2 = np.empty((batch, model.width), dtype)
        self.out = np.empty((batch, model.d), dtype)
        if backward:
            self.delta = np.empty((batch, model.width), dtype)
            self.grad = np.empty_like(model.params)
            self.grad_views = _views(self.grad, model.d, model.m, model.width)


def _condition(model: VelocityModel, e: np.ndarray, batch: int) -> np.ndarray:
    """The first layer's condition term: w1's condition columns applied
    to e, plus b1. One condition for the whole batch, e of shape (m,),
    gives one (width,) term; one condition per row, e of shape
    (batch, m), gives one term per row."""
    if e.shape not in ((model.m,), (batch, model.m)):
        raise ValueError(
            f"condition of shape {e.shape}, expected ({model.m},) or ({batch}, {model.m})"
        )
    term = e @ model.w1[:, model.d + 1 :].T
    return np.add(term, model.b1, out=term)


def _forward(model: VelocityModel, buf: StepBuffers, term: np.ndarray) -> np.ndarray:
    """Velocity prediction for the inputs (x_t, t) in buf.z and the
    condition term from `_condition`, left in buf.out with the hidden
    layers in buf.h1 and buf.h2."""
    np.matmul(buf.z, model.w1[:, : model.d + 1].T, out=buf.h1)
    np.add(buf.h1, term, out=buf.h1)
    np.tanh(buf.h1, out=buf.h1)
    np.matmul(buf.h1, model.w2.T, out=buf.h2)
    np.add(buf.h2, model.b2, out=buf.h2)
    np.tanh(buf.h2, out=buf.h2)
    np.matmul(buf.h2, model.w3.T, out=buf.out)
    np.add(buf.out, model.b3, out=buf.out)
    return buf.out


def loss_and_grad_at(
    model: VelocityModel,
    x0: np.ndarray,
    x1: np.ndarray,
    t: np.ndarray,
    e: np.ndarray,
    buf: StepBuffers,
) -> tuple[float, np.ndarray]:
    """Velocity-matching loss and exact gradient at given draws:
    mean over the batch of ||v(x_t, t, e) - (x1 - x0)||^2, with e one
    condition of shape (m,) or one per row, (batch, m). buf must be
    made with `backward=True` for this model's shapes and x0's batch
    size; the returned gradient, laid out as `model.params`, is buf's
    array, valid until the next call with buf."""
    batch = x0.shape[0]
    if batch != buf.z.shape[0]:
        raise ValueError(f"batch of {batch} for buffers of {buf.z.shape[0]}")
    d, e = model.d, _as_vec(e)
    term = _condition(model, e, batch)
    buf.z[:, :d] = interpolate(x0, x1, t[:, None])
    buf.z[:, d] = t
    diff = _forward(model, buf, term)
    np.subtract(diff, target_velocity(x0, x1), out=diff)
    loss = float(np.mean(np.sum(diff * diff, axis=1)))

    # each hidden layer is read for the last time before its slot is
    # reused: h2 becomes 1 - h2^2, then dh1 and da1; h1 becomes 1 - h1^2
    dout = np.multiply(2.0, diff, out=diff)
    np.divide(dout, batch, out=dout)
    (gw1, gb1, gw2, gb2, gw3, gb3), h1, h2, delta = buf.grad_views, buf.h1, buf.h2, buf.delta
    np.matmul(dout.T, h2, out=gw3)
    np.sum(dout, axis=0, out=gb3)
    np.matmul(dout, model.w3, out=delta)
    np.multiply(h2, h2, out=h2)
    np.subtract(1.0, h2, out=h2)
    np.multiply(delta, h2, out=delta)
    np.matmul(delta.T, h1, out=gw2)
    np.sum(delta, axis=0, out=gb2)
    np.matmul(delta, model.w2, out=h2)
    np.multiply(h1, h1, out=h1)
    np.subtract(1.0, h1, out=h1)
    np.multiply(h2, h1, out=h2)
    np.matmul(h2.T, buf.z, out=gw1[:, : d + 1])
    np.sum(h2, axis=0, out=gb1)
    # one condition adds the same e to every row, so its columns' gradient
    # is gb1 e^T; a one-term matmul writes it with no iterator buffer
    if e.ndim == 1:
        np.matmul(gb1[:, None], e[None, :], out=gw1[:, d + 1 :])
    else:
        np.matmul(h2.T, e, out=gw1[:, d + 1 :])
    return loss, buf.grad


# --- training ------------------------------------------------------------

DataSampler = Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]


class TrainConfig(Record):
    steps: int
    batch_size: int
    learning_rate: float
    m: int
    width: int
    init_seed: int
    data_seed: int
    noise_seed: int

    def __init__(self, steps=2000, batch_size=256, learning_rate=1e-2, m=DEFAULT_EMBED_DIM,
                 width=DEFAULT_WIDTH, init_seed=0, data_seed=1, noise_seed=2):
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(learning_rate) and learning_rate > 0):
            raise ValueError(f"learning_rate must be a finite number > 0, got {learning_rate}")
        assign(self, "steps", steps)
        assign(self, "batch_size", batch_size)
        assign(self, "learning_rate", learning_rate)
        assign(self, "m", m)
        assign(self, "width", width)
        assign(self, "init_seed", init_seed)
        assign(self, "data_seed", data_seed)
        assign(self, "noise_seed", noise_seed)


def box_union_sampler(
    instruction: InterleavedInstruction,
    m: int = DEFAULT_EMBED_DIM,
) -> DataSampler:
    """Data sampler for one instruction: x0 uniform over the union of
    its boxes on the unit canvas (exact for disjoint boxes; overlap
    regions are proportionally overweighted), paired with the fixed
    condition embedding itself, one condition for the whole batch."""
    corners = _unit_corners(instruction)
    if not corners.size:
        raise ValueError("instruction has no boxes to sample from")
    areas = (corners[:, 2] - corners[:, 0]) * (corners[:, 3] - corners[:, 1])
    weights = areas / areas.sum()
    embedding = embed_instruction(instruction, m=m)

    def sample_data(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        picks = rng.choice(len(corners), size=n, p=weights)
        u = rng.uniform(size=(n, 2))
        lo, hi = corners[picks, :2], corners[picks, 2:]
        return lo + u * (hi - lo), embedding

    return sample_data


def mixture_sampler(samplers: Sequence[DataSampler]) -> DataSampler:
    """Uniform mixture over several instruction samplers, each of which
    returns one condition; the mixture returns one condition per row."""

    def sample_data(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        picks = rng.integers(0, len(samplers), size=n)
        xs, es = zip(*(s(rng, n) for s in samplers))
        return np.stack(xs)[picks, np.arange(n)], np.stack(es)[picks]

    return sample_data


def train(
    config: TrainConfig,
    data_sampler: DataSampler,
) -> tuple[VelocityModel, list[float]]:
    """Plain SGD on the velocity-matching loss; returns the trained
    model and the per-step loss curve. Raises ValueError at the first
    step whose loss is not finite, or if the last update leaves a
    parameter that is not finite."""
    model = VelocityModel.init(m=config.m, width=config.width, seed=config.init_seed)
    try:
        buf = StepBuffers(model, config.batch_size, backward=True)
    except MemoryError:
        raise ValueError(f"batch_size of {config.batch_size} does not fit in memory") from None
    data_rng = np.random.default_rng(config.data_seed)
    curve: list[float] = []
    # a diverging run overflows before its loss turns non-finite, and the
    # loss check reports it, so numpy's floating-point warnings stay quiet
    with np.errstate(all="ignore"):
        for step in range(config.steps):
            x0, e = data_sampler(data_rng, config.batch_size)
            rng = np.random.default_rng([config.noise_seed, step])
            x1 = rng.standard_normal(x0.shape)
            t = rng.uniform(0.0, 1.0, size=x0.shape[0])
            loss, grad = loss_and_grad_at(model, x0, x1, t, e, buf)
            if not math.isfinite(loss):
                raise ValueError(f"training diverged at step {step}: loss is {loss}")
            curve.append(loss)
            np.multiply(config.learning_rate, grad, out=grad)
            np.subtract(model.params, grad, out=model.params)
    if not np.isfinite(model.params).all():
        raise ValueError(f"training diverged at step {config.steps - 1}: a parameter is not finite")
    return model, curve


_SAMPLE_BLOCK = 1000
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def sample(
    model: VelocityModel,
    e: np.ndarray,
    n_samples: int,
    n_steps: int = 50,
    seed: int = 0,
) -> np.ndarray:
    """Euler-integrate dx/dt = v(x, t, e) from t = 1 (standard-normal
    noise) down to t = 0; returns (n_samples, d) latents. e is one
    condition of shape (m,) or one per sample, (n_samples, m); its
    first-layer term is computed once, not once per step. The field is
    evaluated in float32 and the points are float64. Rows run in
    blocks of `_SAMPLE_BLOCK`, on one thread per CPU where BLAS runs one
    thread. Raises ValueError if a parameter's magnitude exceeds
    float32's range, or if any point ends up not finite."""
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    wire.read(int, n_steps, "n_steps")  # a count no float can hold overflows 1 / n_steps
    largest = float(np.abs(model.params).max())
    if largest > _FLOAT32_MAX:
        raise ValueError(f"sampling evaluates the model in float32, which holds magnitudes up to "
                         f"{_FLOAT32_MAX:.7g}; the model has a parameter of magnitude {largest:.7g}")
    try:
        x = np.random.default_rng(seed).standard_normal((n_samples, model.d))
        term = _condition(model, _as_vec(e), n_samples)
        # a term beyond float32's range saturates tanh as it would in float64
        with np.errstate(over="ignore"):
            term = term.astype(np.float32)
    except MemoryError:
        raise ValueError(f"n_samples of {n_samples} does not fit in memory") from None
    field = VelocityModel(model.d, model.m, model.width, model.params.astype(np.float32))
    # share i holds blocks blocks*i//workers up to blocks*(i+1)//workers
    blocks = -(-n_samples // _SAMPLE_BLOCK)
    workers = max(1, min(len(os.sched_getaffinity(0)) if _ONE_BLAS_THREAD else 1, blocks))
    bounds = [min(n_samples, blocks * i // workers * _SAMPLE_BLOCK) for i in range(workers + 1)]
    errors: list[BaseException] = []

    def run_share(lo: int, hi: int) -> None:
        try:
            _integrate(field, x, term, n_steps, lo, hi)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run_share, args=bounds[i : i + 2]) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    run_share(bounds[0], bounds[1])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    bad = n_samples - int(np.isfinite(x).all(axis=1).sum())
    if bad:
        raise ValueError(f"sampling diverged: {bad} of {n_samples} points are not finite")
    return x


def _integrate(model: VelocityModel, x: np.ndarray, term: np.ndarray, n_steps: int,
               lo: int, hi: int) -> None:
    """All Euler steps for rows lo to hi of x, in place, one block of
    `_SAMPLE_BLOCK` rows at a time; term is `_condition`'s for all of
    x, in the model's dtype."""
    dt = 1.0 / n_steps
    buf = None
    # numpy's error state is per thread; an overflowing field is reported
    # by `sample`'s check, so its floating-point warnings stay quiet
    with np.errstate(all="ignore"):
        for start in range(lo, hi, _SAMPLE_BLOCK):
            rows = x[start : min(hi, start + _SAMPLE_BLOCK)]
            if buf is None or buf.z.shape[0] != len(rows):
                buf = StepBuffers(model, len(rows), backward=False)
            block_term = term if term.ndim == 1 else term[start : start + len(rows)]
            for k in range(n_steps):
                buf.z[:, : model.d] = rows
                buf.z[:, model.d] = 1.0 - k * dt
                step = _forward(model, buf, block_term)
                np.multiply(dt, step, out=step)
                np.subtract(rows, step, out=rows)


def in_box_fraction(samples: np.ndarray, instruction: InterleavedInstruction) -> float:
    """Fraction of points inside the union of the instruction's boxes on
    the unit canvas, each box dilated by 0.02; 0.0 when the instruction
    carries no boxes."""
    corners = _unit_corners(instruction)
    pts = np.atleast_2d(_as_vec(samples))[:, None, :]
    if not corners.size or pts.shape[0] == 0:
        return 0.0
    tolerance = 0.02
    hit = (pts >= corners[:, :2] - tolerance) & (pts <= corners[:, 2:] + tolerance)
    return float(hit.all(axis=2).any(axis=1).mean())


# --- checkpoint / curve files ---------------------------------------------


def save_checkpoint(path, model: VelocityModel, meta: dict | None = None) -> None:
    """File layout: one JSON header line (shape + metadata), then the
    model's `params` as little-endian float64 bytes."""
    header = {
        "d": model.d,
        "m": model.m,
        "width": model.width,
        "meta": meta or {},
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        f.write(model.params.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[VelocityModel, dict]:
    with open(path, "rb") as f:
        header = wire.loads(f.readline().decode("utf-8"))
        blob = f.read()
    header = wire.read(Mapping[str, object], header, "checkpoint header")
    d, m, width = (wire.read(int, header.get(k), f"checkpoint {k}") for k in ("d", "m", "width"))
    if min(d, m, width) < 1:
        raise ValueError(f"checkpoint d, m and width must be >= 1, got {d}, {m} and {width}")
    # box_union_sampler trains and in_box_fraction scores 2-D latents only
    if d != DEFAULT_DIM:
        raise ValueError(f"checkpoint d must be {DEFAULT_DIM}, got {d}")
    # the blob is checked against the header before the header sizes any array
    expected = 8 * sum(math.prod(shape) for shape in _shapes(d, m, width))
    if len(blob) != expected:
        raise ValueError(
            f"checkpoint holds {len(blob)} parameter bytes, expected {expected} "
            f"for d={d}, m={m}, width={width}"
        )
    params = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    return VelocityModel(d, m, width, params), header.get("meta", {})


def save_loss_curve(path, curve: Sequence[float]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for step, value in enumerate(curve):
            f.write(f"{step} {value!r}\n")

