"""Small fully-connected classifier: manual forward/backward plus Adam.

Architecture is input -> H1 -> H2 -> K with ReLU hidden units and
inverted dropout on both hidden activations.  The penultimate (H2)
activations double as the sample's feature vector for distance analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, TrainingDivergenceError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# rows per block of forward's masks and elementwise steps: a 512 x 64
# float64 block is 256 KiB, so it stays in cache from one step to the next
PASS_ROW_BLOCK = 512

MODEL_FORMAT_HEADER = "mixboot-mlp v1"
PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


def param_shapes(dims: tuple[int, int, int, int]) -> list[tuple[int, ...]]:
    """Shapes of w1, b1, w2, b2, w3, b3: the order of params() and of the
    flat parameter buffer."""
    d, h1, h2, k = dims
    return [(d, h1), (h1,), (h1, h2), (h2,), (h2, k), (k,)]


def param_count(dims: tuple[int, int, int, int]) -> int:
    return sum(math.prod(shape) for shape in param_shapes(dims))


def split_flat(flat: np.ndarray, dims: tuple[int, int, int, int]) -> list[np.ndarray]:
    """Reshaped views of a buffer in the flat parameter layout, in params() order."""
    views, start = [], 0
    for shape in param_shapes(dims):
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


class MlpModel:
    """Weights and biases stored as one contiguous float64 buffer, ``flat``.

    ``w1, b1, w2, b2, w3, b3`` are reshaped views into ``flat`` (in that
    order), so writing to either writes to both: Adam updates ``flat`` in
    one pass and forward reads the layers through the views.
    """

    def __init__(self, flat: np.ndarray, dims: tuple[int, int, int, int],
                 dropout: float = 0.2):
        dims = tuple(int(s) for s in dims)
        n = param_count(dims)
        if flat.dtype != np.float64 or flat.shape != (n,):
            raise InvalidInputError(
                f"parameter buffer must be float64 of shape ({n},) for dims {dims}"
            )
        self.flat = flat
        self.dims = dims
        self.dropout = dropout
        self.w1, self.b1, self.w2, self.b2, self.w3, self.b3 = split_flat(flat, dims)

    def __reduce__(self):
        # pickle and deepcopy rebuild the views instead of detaching them
        return (MlpModel, (self.flat, self.dims, self.dropout))

    def params(self) -> list[np.ndarray]:
        """Parameters in the fixed update/serialization order."""
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def copy(self) -> "MlpModel":
        return MlpModel(self.flat.copy(), self.dims, dropout=self.dropout)

    # estimator-facing surface
    def predict_logits(self, inputs: np.ndarray, buffers=None) -> np.ndarray:
        """Logits with dropout inactive; ``buffers`` as in ``forward``."""
        logits, _, _ = forward(self, inputs, buffers=buffers)
        return logits

    def features(self, inputs: np.ndarray) -> np.ndarray:
        """Penultimate activations with dropout inactive."""
        return forward(self, inputs)[1]


@dataclass
class ForwardCache:
    """What backward needs: the input, the masked activations and the
    dropout scale ``1/(1-rate)`` (1.0 with dropout off).

    A unit was both kept by its mask and active exactly where its
    activation is positive, so backward gates on ``a > 0`` and keeps
    neither the pre-activations nor the masks.
    """

    x: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    scale: float


def kaiming_init(
    shape: tuple[int, int, int, int], seed, dropout: float = 0.2
) -> MlpModel:
    """Zero-mean weights with variance 2/fan_in per layer; zero biases."""
    d, h1, h2, k = shape
    if min(d, h1, h2, k) < 1:
        raise InvalidInputError(f"invalid model shape {shape}")
    rng = np.random.default_rng(seed)
    model = MlpModel(np.zeros(param_count(shape)), shape, dropout=dropout)
    model.w1[...] = rng.normal(0.0, np.sqrt(2.0 / d), size=(d, h1))
    model.w2[...] = rng.normal(0.0, np.sqrt(2.0 / h1), size=(h1, h2))
    model.w3[...] = rng.normal(0.0, np.sqrt(2.0 / h2), size=(h2, k))
    return model


def _dropout_mask(out: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    # inverted dropout: surviving units are scaled by 1/(1-rate); the mask
    # is built in ``out``, which first holds the uniform draw.  A kept
    # unit's 1.0 times 1/(1-rate) has the bits of 1.0 / (1-rate), and the
    # multiply is cheaper than a divide
    rng.random(out=out)
    np.greater_equal(out, rate, out=out)
    out *= 1.0 / (1.0 - rate)
    return out


def _block_masks(model: MlpModel, n_rows: int, rng: np.random.Generator):
    """The dropout masks of a forward's row blocks, in stream order: every
    block of layer 1, then every block of layer 2.  One block's two masks
    are one draw; wider batches draw each block into one shared scratch
    array, so a mask is stale once the next is drawn."""
    _, h1, h2, _ = model.dims
    rate = model.dropout
    if n_rows <= PASS_ROW_BLOCK:
        masks = _dropout_mask(np.empty(n_rows * (h1 + h2)), rate, rng)
        yield masks[:n_rows * h1].reshape(n_rows, h1)
        yield masks[n_rows * h1:].reshape(n_rows, h2)
        return
    scratch = np.empty(PASS_ROW_BLOCK * max(h1, h2))
    for width in (h1, h2):
        for start in range(0, n_rows, PASS_ROW_BLOCK):
            shape = (min(PASS_ROW_BLOCK, n_rows - start), width)
            yield _dropout_mask(scratch[:shape[0] * width].reshape(shape), rate, rng)


def hidden_buffers(model: MlpModel, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialised N x H1 and N x H2 float64 buffers for the hidden
    layers of a ``forward`` over ``n_rows`` rows."""
    _, h1, h2, _ = model.dims
    return np.empty((n_rows, h1)), np.empty((n_rows, h2))


def hidden1(model: MlpModel, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Layer-1 activations ``ReLU(x @ w1 + b1)`` of an N x D float64 batch,
    before any dropout: written into ``out``, an N x H1 float64 buffer,
    or into one new N x H1 array if None."""
    a1 = np.matmul(x, model.w1, out=out)
    a1 += model.b1
    np.maximum(a1, 0.0, out=a1)
    return a1


def _output_layer(model: MlpModel, a2: np.ndarray) -> np.ndarray:
    logits = a2 @ model.w3
    logits += model.b3
    if not np.isfinite(logits).all():
        raise TrainingDivergenceError("non-finite activations in forward pass")
    return logits


def forward(
    model: MlpModel,
    inputs: np.ndarray,
    rng: np.random.Generator | None = None,
    buffers: tuple[np.ndarray, np.ndarray] | None = None,
    layer1: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Affine/ReLU stack over an N x D batch; returns (logits, penultimate
    features, cache).  Dropout is active exactly when ``rng`` is given; a
    rate of 0 draws nothing, so it then gives the bits of no dropout.

    Each hidden layer is one array, written in place: affine, bias, ReLU,
    then the dropout mask.  ``buffers`` are N x H1 and N x H2 float64
    arrays that hold the two layers in place of new ones; the returned
    features and cache are views of them.  ``layer1 = hidden1(model, x)``
    stands in for the first layer and is never written to, so MC-dropout
    passes over one batch can share it and the buffers.

    The masks and the elementwise steps run over ``PASS_ROW_BLOCK`` rows
    at a time, so each block stays in cache; every step is
    row-independent, and the masks keep the stream order of one draw for
    all of layer 1, then all of layer 2.  The GEMMs keep the full batch:
    a GEMM's bits may depend on its row count.
    """
    x = np.asarray(inputs, dtype=np.float64)
    n = len(x)
    a1, a2 = hidden_buffers(model, n) if buffers is None else buffers
    if layer1 is None:
        layer1 = hidden1(model, x, out=a1)
    starts = range(0, n, PASS_ROW_BLOCK)
    use_dropout = rng is not None and model.dropout > 0.0
    if use_dropout:
        masks = _block_masks(model, n, rng)
        for s in starts:
            rows = slice(s, s + PASS_ROW_BLOCK)
            np.multiply(layer1[rows], next(masks), out=a1[rows])
    else:
        a1 = layer1
    np.matmul(a1, model.w2, out=a2)
    for s in starts:
        block = a2[s:s + PASS_ROW_BLOCK]
        block += model.b2
        np.maximum(block, 0.0, out=block)
        if use_dropout:
            block *= next(masks)
    scale = 1.0 / (1.0 - model.dropout) if use_dropout else 1.0
    return _output_layer(model, a2), a2, ForwardCache(x, a1, a2, scale)


def dropout_passes(model: MlpModel, inputs: np.ndarray, seed: int | list[int]):
    """``pass_logits(p)``: the logits of MC-dropout pass p over an N x D
    batch, one dropout ``forward`` from layer 1 and two buffers made here
    once, before any fork.  A forward takes one PCG64 step per hidden unit
    and row, so pass p draws from ``PCG64(seed)`` advanced by p forwards'
    steps, where p passes run one after another leave it; rate 0 draws none."""
    x = np.asarray(inputs, dtype=np.float64)
    layer1 = hidden1(model, x)
    buffers = hidden_buffers(model, len(x))
    _, h1, h2, _ = model.dims

    def pass_logits(p: int) -> np.ndarray:
        bits = np.random.PCG64(seed)
        bits.advance(p * len(x) * (h1 + h2))
        return forward(model, x, np.random.Generator(bits), buffers, layer1)[0]

    return pass_logits


def backward(
    model: MlpModel,
    cache: ForwardCache,
    grad_logits: np.ndarray,
    out: MlpModel | None = None,
) -> np.ndarray:
    """Parameter gradients of the batch-mean loss, laid out like model.flat.

    grad_logits rows are per-sample dloss_i/dlogits_i; the mean over the
    batch is folded in here.  Each gradient is computed straight into its
    view of ``out``, a model-shaped gradient buffer (a new one if None),
    whose flat buffer is overwritten and returned.  Every gradient is a
    sum over the batch, divided by the row count in one pass at the end:
    ``mean(axis=0)`` is the same sum and the same division.

    Gating by ``a > 0`` and then scaling gives the bits of the product
    with the dropout mask and then the gate, signed zeros included, except
    at a dead unit where ``dz * scale`` overflows, where the mask product
    gave NaN and this gives ±0.
    """
    g = np.asarray(grad_logits, dtype=np.float64)
    if out is None:
        out = MlpModel(np.empty_like(model.flat), model.dims)

    np.matmul(cache.a2.T, g, out=out.w3)
    np.add.reduce(g, axis=0, out=out.b3)
    dz2 = g @ model.w3.T
    dz2 *= cache.a2 > 0.0
    dz2 *= cache.scale
    np.matmul(cache.a1.T, dz2, out=out.w2)
    np.add.reduce(dz2, axis=0, out=out.b2)
    dz1 = dz2 @ model.w2.T
    dz1 *= cache.a1 > 0.0
    dz1 *= cache.scale
    np.matmul(cache.x.T, dz1, out=out.w1)
    np.add.reduce(dz1, axis=0, out=out.b1)
    out.flat /= g.shape[0]
    return out.flat


@dataclass
class AdamState:
    """First and second moments, flat and laid out like the parameters,
    and the buffers every step reuses: two Adam scratch arrays of the same
    length and, from backward_step's first call, its gradient buffer."""

    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    t: int = 0
    grads: MlpModel | None = None


def adam_init(params: np.ndarray) -> AdamState:
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params),
                     scratch=(np.empty_like(params), np.empty_like(params)))


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One decoupled-weight-decay Adam update of a flat buffer, in place.

    Every operation is elementwise, so one pass over model.flat gives the
    same bits as one pass per parameter array.  The update is
    ``params -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`` step for step,
    with each temporary written into ``state.scratch``; a product's two
    factors may swap, since IEEE multiplication commutes.
    """
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    m, v = state.m, state.v
    step, denom = state.scratch
    if weight_decay != 0.0:
        np.multiply(params, lr * weight_decay, out=step)
        params -= step
    m *= ADAM_BETA1
    np.multiply(grads, 1.0 - ADAM_BETA1, out=step)
    m += step
    v *= ADAM_BETA2
    np.multiply(grads, 1.0 - ADAM_BETA2, out=step)
    step *= grads
    v += step
    np.divide(m, bc1, out=step)
    step *= lr
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    params -= step


def backward_step(
    model: MlpModel,
    cache: ForwardCache,
    grad_logits: np.ndarray,
    adam_state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """Backprop the batch gradient and apply one Adam update in place."""
    if adam_state.grads is None:
        adam_state.grads = MlpModel(np.empty_like(model.flat), model.dims)
    grads = backward(model, cache, grad_logits, out=adam_state.grads)
    adam_step(model.flat, grads, adam_state, lr, weight_decay)


def save_model(model: MlpModel, path) -> None:
    """Versioned plain-text dump; floats use repr so reloads are exact."""
    d, h1, h2, k = model.dims
    lines = [MODEL_FORMAT_HEADER, f"dims {d} {h1} {h2} {k}", f"dropout {model.dropout!r}"]
    for name, p in zip(PARAM_NAMES, model.params()):
        shape = " ".join(str(s) for s in p.shape)
        lines.append(f"param {name} {shape}")
        rows = p.tolist() if p.ndim == 2 else [p.tolist()]
        lines.extend(" ".join(map(float.__repr__, row)) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> MlpModel:
    """Read a ``save_model`` file; any malformed line raises
    InvalidInputError naming the path and the line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MODEL_FORMAT_HEADER:
        raise InvalidInputError(f"unrecognized model file header in {path}")

    def malformed(i: int, why: str) -> InvalidInputError:
        return InvalidInputError(f"malformed model file {path} at line {i + 1}: {why}")

    def numbers(i: int, parse, head: tuple = ()) -> list:
        # the values on line i after the tokens ``head`` it starts with: at least one
        if i >= len(lines):
            raise malformed(i, "unexpected end of file")
        tokens = lines[i].split()
        if tokens[:len(head)] != list(head):
            raise malformed(i, f"expected {' '.join(head)!r}")
        tokens = tokens[len(head):]
        if not tokens:
            raise malformed(i, "no values")
        try:
            return [parse(t) for t in tokens]
        except ValueError as exc:
            raise malformed(i, str(exc)) from None

    dims = tuple(numbers(1, int, ("dims",)))
    dropout, *extra = numbers(2, float, ("dropout",))
    if extra or not 0.0 <= dropout < 1.0:  # NaN fails too
        raise malformed(2, "dropout must be one value in [0, 1)")
    params = {}
    i = 3
    while i < len(lines):
        tokens = lines[i].split()
        if len(tokens) < 2 or tokens[0] != "param":
            raise malformed(i, "expected 'param <name> <shape>'")
        name = tokens[1]
        if name not in PARAM_NAMES:
            raise malformed(i, f"unknown parameter {name!r}")
        if name in params:
            raise malformed(i, f"repeated parameter {name!r}")
        shape = tuple(numbers(i, int, ("param", name)))
        if len(shape) > 2 or min(shape) < 1:
            raise malformed(i, f"bad shape {shape}")
        n_rows, n_cols = shape if len(shape) == 2 else (1, shape[0])
        block = []
        for r in range(i + 1, i + 1 + n_rows):
            block.append(numbers(r, float))
            if len(block[-1]) != n_cols:
                raise malformed(r, f"{len(block[-1])} values, expected {n_cols}")
        arr = np.array(block, dtype=np.float64)
        params[name] = arr if len(shape) == 2 else arr[0]
        i += 1 + n_rows
    shapes = [params[name].shape if name in params else None for name in PARAM_NAMES]
    if len(dims) != 4 or shapes != param_shapes(dims):
        raise malformed(1, "dims header disagrees with parameters")
    flat = np.concatenate([params[name].ravel() for name in PARAM_NAMES])
    return MlpModel(flat, dims, dropout=dropout)
