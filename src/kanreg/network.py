"""KAN regression networks built from learned univariate edge functions.

A layer maps ``in_dim`` inputs to ``out_dim`` node activations

    y[q] = sum_i phi[q, i](x[i])

where each edge function ``phi[q, i]`` is a coefficient combination of one
basis family (or a scaled/shifted Mexican hat for the wavelet family).
Bounded-domain families receive tanh-squashed layer inputs; the backward
pass carries the matching chain factor. The module also provides the
input-size driven architecture rule, a fixed-architecture MLP baseline, and
model files (version 4): a JSON header line followed by raw float64 arrays.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .basis import CONSTANT_FIRST_FAMILIES, BasisSpec, basis_size, evaluate_basis, mexican_hat
from .errors import (ContractError, FormatError, NumericError, ParameterError,
                     ParseError, ShapeError, UnsupportedVersionError, json_number)
from .linalg import Rng
from .data import Standardizer, _atomic_write, apply_standardizer, utf8_error
from .pca import PcaModel, transform as pca_transform

MODEL_FORMAT = "kanreg-model"
MODEL_VERSION = 4


@dataclass
class KanLayer:
    in_dim: int
    out_dim: int
    coeffs: np.ndarray                    # [out_dim, basis_size, in_dim]
    scales: np.ndarray | None = None      # wavelet only, [out_dim, in_dim]
    shifts: np.ndarray | None = None      # wavelet only, [out_dim, in_dim]


@dataclass
class KanNetwork:
    spec: BasisSpec
    layers: list[KanLayer]

    @property
    def dims(self) -> list[int]:
        return [self.layers[0].in_dim] + [layer.out_dim for layer in self.layers]


@dataclass
class MlpNetwork:
    """Plain rectifier MLP baseline; hidden layers ReLU, linear head."""

    weights: list[np.ndarray]             # per layer [out_dim, in_dim]
    biases: list[np.ndarray]              # per layer [out_dim]

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]


MLP_HIDDEN_DIMS = (1024, 512, 256, 128)


def mlp_dims(input_dim: int) -> list[int]:
    """Baseline stack [input_dim, 1024, 512, 256, 128, 1]."""
    if input_dim < 1:
        raise ParameterError(f"input_dim must be >= 1, got {input_dim}")
    return [input_dim, *MLP_HIDDEN_DIMS, 1]


@dataclass
class GradientSet:
    """One gradient buffer, ``flat``, and its views aligned with :func:`params_of`."""

    flat: np.ndarray
    arrays: list[np.ndarray]


@dataclass
class ForwardCache:
    net: object
    n: int
    layer_data: list[dict]


def auto_configure(input_dim: int, output_dim: int = 1) -> list[int]:
    """Pick a 4-entry layer plan from the input size.

    Hidden widths step up with the input dimension: (64, 16) up to 64
    inputs, (128, 32) up to 128, (256, 64) up to 256, (512, 128) beyond.
    """
    if input_dim < 1:
        raise ParameterError(f"input_dim must be >= 1, got {input_dim}")
    if output_dim < 1:
        raise ParameterError(f"output_dim must be >= 1, got {output_dim}")
    if input_dim <= 64:
        hidden = (64, 16)
    elif input_dim <= 128:
        hidden = (128, 32)
    elif input_dim <= 256:
        hidden = (256, 64)
    else:
        hidden = (512, 128)
    return [input_dim, hidden[0], hidden[1], output_dim]


def six_layer_dims(input_dim: int) -> list[int]:
    """Deep preset [input_dim, 512, 256, 128, 64, 1]."""
    if input_dim < 1:
        raise ParameterError(f"input_dim must be >= 1, got {input_dim}")
    return [input_dim, 512, 256, 128, 64, 1]


def _check_dims(dims) -> list[int]:
    dims = [int(d) for d in dims]
    if len(dims) < 2:
        raise ParameterError(f"a network needs at least 2 dims, got {dims}")
    if any(d < 1 for d in dims):
        raise ParameterError(f"all layer dims must be >= 1, got {dims}")
    return dims


def _skeleton(dims: list[int], spec: BasisSpec | None):
    """The network of checked ``dims`` with each parameter array only its shape tuple.

    KAN layers of basis ``spec``, or the MLP when ``spec`` is None. Init and
    load fill it by one walk over :func:`_slots`.
    """
    edges = list(zip(dims[:-1], dims[1:]))
    if spec is None:
        return MlpNetwork(weights=[(dout, din) for din, dout in edges],
                          biases=[(dout,) for _, dout in edges])
    b = basis_size(spec)
    wavelet = spec.family == "wavelet_mexican_hat"
    layers = []
    for din, dout in edges:
        edge = (dout, din) if wavelet else None  # the scales and the shifts
        layers.append(KanLayer(din, dout, (dout, b, din), edge, edge))
    return KanNetwork(spec=spec, layers=layers)


def _fresh(dims: list[int], spec: BasisSpec | None, rng: Rng):
    """A new network: role 0 uniform on +-sqrt(6/(in*b + out)), scales 1, the rest 0.

    Role 0 is drawn layer by layer, row-major over ``[out, in, b]`` (b = 1 for
    an MLP weight), and stored as ``[out, b, in]``, so a seed fixes the network.
    """
    net = _skeleton(dims, spec)
    for owner, key, role, _ in _slots(net):
        shape = owner[key]
        if role:
            owner[key] = np.full(shape, 1.0 if role == 1 else 0.0)
            continue
        dout, din, b = shape[0], shape[-1], math.prod(shape[1:-1])
        bound = math.sqrt(6.0 / (din * b + dout))
        draws = rng.uniforms(dout * din * b).reshape(dout, din, b)
        draws *= 2.0  # (2u - 1) * bound, in place
        draws -= 1.0
        draws *= bound
        owner[key] = np.ascontiguousarray(draws.transpose(0, 2, 1)).reshape(shape)
    return net


def init_network(dims, spec: BasisSpec, rng: Rng) -> KanNetwork:
    """Fresh network (:func:`_fresh`); wavelet edges start at scale 1 and shift 0."""
    return _fresh(_check_dims(dims), spec, rng)


def init_mlp(dims, rng: Rng) -> MlpNetwork:
    """MLP with weights uniform on +-sqrt(6/(in + out)) and zero biases."""
    dims = _check_dims(dims)
    if dims[-1] != 1:
        raise ParameterError(f"regression networks end in one output, got dims {dims}")
    return _fresh(dims, None, rng)


def _slots(net) -> list[tuple]:
    """``(owner, key, role, block)`` per trainable array ``owner[key]``, role by role.

    Each role runs layer by layer: L1 penalizes role 0 (edge coefficients, MLP
    weights), training clamps role 1 (wavelet scales) at a floor, and role 2
    (wavelet shifts, MLP biases) gets neither. This one order serves :func:`params_of`,
    the flat buffer, the gradients and the model file, whose header key is ``block``.
    """
    if isinstance(net, KanNetwork):
        keys = ("coeffs", "scales", "shifts") if net.spec.family == "wavelet_mexican_hat" \
            else ("coeffs",)
        return [(vars(layer), key, role, "wavelet_" + key if role else key)
                for role, key in enumerate(keys) for layer in net.layers]
    if isinstance(net, MlpNetwork):
        return [(getattr(net, key), l, role, "mlp_" + key)
                for role, key in ((0, "weights"), (2, "biases")) for l in range(len(net.weights))]
    raise ParameterError(f"unsupported network type {type(net).__name__}")


def params_of(net) -> tuple[list[np.ndarray], list[bool]]:
    """All trainable arrays of ``net`` in :func:`_slots` order, with L1 flags (role 0)."""
    slots = _slots(net)
    return [owner[key] for owner, key, *_ in slots], [role == 0 for _, _, role, _ in slots]


def _flat_views(net) -> tuple[np.ndarray, list[np.ndarray]]:
    """A new float64 buffer and its views, shaped as ``params_of(net)`` and in its order."""
    arrays = [owner[key] for owner, key, *_ in _slots(net)]
    flat = np.empty(sum(a.size for a in arrays))
    views, at = [], 0
    for a in arrays:
        views.append(flat[at:at + a.size].reshape(a.shape))
        at += a.size
    return flat, views


def bind_flat(net) -> tuple[np.ndarray, list[int]]:
    """Move the parameters of ``net`` into one buffer, laid out as :func:`backward`'s gradients.

    Every layer array becomes a view of the buffer, which holds them in
    :func:`params_of` order. Returns it and the element count of each role.
    """
    flat, views = _flat_views(net)
    sizes = [0, 0, 0]
    for (owner, key, role, _), view in zip(_slots(net), views):
        view[...] = owner[key]
        owner[key] = view
        sizes[role] += view.size
    return flat, sizes


def _as_batch(x, expected_dim: int) -> np.ndarray:
    xa = np.asarray(x, dtype=np.float64)
    if xa.ndim != 2:
        raise ShapeError(f"network input must be 2-D [n, features], got ndim={xa.ndim}")
    if xa.shape[1] != expected_dim:
        raise ShapeError(
            f"network expects {expected_dim} input features, got {xa.shape[1]}")
    return xa


# A values-only pass runs in row chunks whose widest per-row intermediate
# fills about this many bytes, so its memory does not grow with the row count.
CHUNK_BYTES = 16 * 2**20


def _row_chunks(net, n: int, width: int = 1) -> list[slice]:
    """Row slices of ``n`` rows, each small enough for CHUNK_BYTES.

    The widest per-row intermediate is ``in_dim * b`` basis values for a
    coefficient layer, ``out_dim * in_dim`` edge values for a wavelet
    layer, the widest MLP layer, or ``width`` raw feature columns.
    """
    if isinstance(net, MlpNetwork):
        widest = max(net.dims)
    else:
        b = basis_size(net.spec)
        widest = max(layer.out_dim * layer.in_dim if layer.scales is not None
                     else layer.in_dim * b for layer in net.layers)
    step = max(1, CHUNK_BYTES // (8 * max(widest, width)))
    return [slice(i, i + step) for i in range(0, max(n, 1), step)]


# From this many rows x inputs x outputs on, a layer whose basis function 0 is 1 adds
# that column as a bias outside its matmuls; below it the bias costs more than it saves.
BIAS_MIN = 2**19


def forward(net, x, want_cache: bool = True):
    """Run the network on a batch; returns ``(outputs, cache)``.

    ``outputs`` is the length-n prediction vector. ``cache`` holds the
    per-layer intermediates :func:`backward` needs. Without a cache
    (``want_cache`` false, cache None) the rows run in chunks.
    """
    if want_cache:
        return _forward_rows(net, x, True)
    xa = _as_batch(x, net.dims[0])
    outs = [_forward_rows(net, xa[rows], False)[0] for rows in _row_chunks(net, len(xa))]
    return np.concatenate(outs), None


def _forward_rows(net, x, want_cache: bool):
    dims = net.dims
    if dims[-1] != 1:
        raise ShapeError(f"forward needs a scalar-output network, got out_dim={dims[-1]}")
    cur = _as_batch(x, dims[0])
    n = cur.shape[0]
    dense = isinstance(net, MlpNetwork)
    squash = not dense and net.spec.squashes_input()
    layer_data: list[dict] = []
    for l in range(len(dims) - 1):
        if dense:  # the hidden ReLU applies as data enters the next layer
            u = np.maximum(cur, 0.0) if l else cur
            out = u @ net.weights[l].T + net.biases[l]
        else:
            layer = net.layers[l]
            u = np.tanh(cur) if squash else cur
            lo = int(net.spec.family in CONSTANT_FIRST_FAMILIES  # first matmul basis column
                     and n * layer.in_dim * layer.out_dim >= BIAS_MIN)
            if layer.scales is not None:  # wavelet
                val, derivatives = mexican_hat(
                    u[:, None, :], layer.scales[None, :, :], layer.shifts[None, :, :])
                out = np.einsum("oi,noi->no", layer.coeffs[:, 0], val)
            else:
                val, derivatives = evaluate_basis(net.spec, u)
                val = val.swapaxes(1, 2)  # the basis-major [n, b, in] it was built as
                out = val[:, lo:].reshape(n, -1) @ layer.coeffs[:, lo:].reshape(layer.out_dim, -1).T
                if lo:
                    out += layer.coeffs[:, 0].sum(axis=1)
        if not np.isfinite(out).all():
            raise NumericError("non-finite activation in forward pass", layer=l)
        if want_cache:  # backward calls derivatives() only for layers it differentiates
            layer_data.append({"input": u, "pre": cur} if dense else
                              {"squashed": u if squash else None, "values": val,
                               "derivatives": derivatives, "lo": lo})
        cur = out
    cache = ForwardCache(net=net, n=n, layer_data=layer_data) if want_cache else None
    return cur[:, 0], cache


def backward(net, cache: ForwardCache, out_grads, out: GradientSet | None = None) -> GradientSet:
    """Reverse-mode gradients of ``sum(out_grads * outputs)`` w.r.t. params.

    They overwrite and return ``out`` (``GradientSet(*_flat_views(net))``), else a new buffer.
    ``cache`` must come from a :func:`forward` call on the same network
    object with caching enabled, otherwise a ContractError is raised.
    The gradient with respect to the network input (layer 0's input
    gradient) is not computed, since no parameter depends on it.
    """
    if cache is None or cache.net is not net:
        raise ContractError("backward needs the cache produced by forward on this network")
    dense = isinstance(net, MlpNetwork)
    layers = net.weights if dense else net.layers
    if len(cache.layer_data) != len(layers):
        raise ContractError("stale cache: layer count does not match the network")
    g = np.asarray(out_grads, dtype=np.float64).reshape(-1)
    if g.size != cache.n:
        raise ShapeError(f"out_grads has length {g.size}, expected {cache.n}")
    grad = g[:, None]
    squash = not dense and net.spec.squashes_input()
    grads = GradientSet(*_flat_views(net)) if out is None else out
    for l in range(len(layers) - 1, -1, -1):
        data = cache.layer_data[l]
        layer = layers[l]  # a dense layer is its weight matrix
        # the parameter gradients of layer l, written into their views
        mine = grads.arrays[l::len(layers)]
        if dense:
            np.matmul(grad.T, data["input"], out=mine[0])
            np.sum(grad, axis=0, out=mine[1])
        elif layer.scales is not None:  # wavelet
            coeff_grad, scale_grad, shift_grad = mine
            d_x, d_scale = data["derivatives"]()
            np.einsum("no,noi->oi", grad, data["values"], out=coeff_grad[:, 0])
            common = grad[:, :, None] * layer.coeffs[:, 0][None, :, :]
            np.einsum("noi,noi->oi", common, d_scale, out=scale_grad)
            np.einsum("noi,noi->oi", common, d_x, out=shift_grad)
            np.negative(shift_grad, out=shift_grad)  # d_shift = -d_x
        else:
            coeff_grad, = mine
            val = data["values"]
            n, lo = val.shape[0], data["lo"]
            np.matmul(grad.T, val[:, lo:].reshape(n, -1),
                      out=coeff_grad[:, lo:].reshape(layer.out_dim, -1))
            if lo:
                coeff_grad[:, 0] = grad.sum(axis=0)[:, None]
        if l == 0:
            break
        # the gradient with respect to layer l's input
        if dense:
            grad = (grad @ layer) * (data["pre"] > 0.0)
            continue
        if layer.scales is not None:
            du = np.einsum("noi,noi->ni", common, d_x)
        else:
            p = (grad @ layer.coeffs[:, lo:].reshape(layer.out_dim, -1)).reshape(n, -1, layer.in_dim)
            du = np.sum(p * data["derivatives"]().swapaxes(1, 2)[:, lo:], axis=1)
        if squash:
            u = data["squashed"]
            grad = du * (1.0 - u * u)
        else:
            grad = du
    return grads


@dataclass
class ModelBundle:
    """A trained network plus everything needed to score raw feature rows.

    ``standardizer`` z-scores raw features, ``pca`` optionally rotates them,
    and ``feature_scaler`` z-scores the coordinates the network actually
    consumes (PCA outputs carry the eigenvalue scale, far from unit), so the
    network always sees standardized inputs.
    """

    net: object
    standardizer: Standardizer | None = None
    pca: PcaModel | None = None
    feature_scaler: Standardizer | None = None
    target_mean: float = 0.0
    target_std: float = 1.0
    meta: dict = field(default_factory=dict)


def predict(model: ModelBundle, features) -> np.ndarray:
    """Raw-scale predictions for raw feature rows, scored in row chunks."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2:
        raise ShapeError(f"features must be 2-D [n, d], got ndim={f.ndim}")
    if model.standardizer is not None and f.shape[1] != model.standardizer.means.size:
        raise ShapeError(
            f"model was fit on {model.standardizer.means.size} features, "
            f"table has {f.shape[1]}")
    outs = []
    for rows in _row_chunks(model.net, len(f), f.shape[1]):
        g = f[rows]
        if model.standardizer is not None:
            g = apply_standardizer(model.standardizer, g)
        if model.pca is not None:
            g = pca_transform(model.pca, g)
        if model.feature_scaler is not None:
            g = apply_standardizer(model.feature_scaler, g)
        outs.append(forward(model.net, g, want_cache=False)[0])
    return np.concatenate(outs) * model.target_std + model.target_mean


# ---------------------------------------------------------------------------
# Model files. Version 4 is one JSON header line, then the raw little-endian
# C-order float64 bytes of every array back to back: the parameters in _slots
# order and under its header keys, then standardizer, feature-scaler and PCA
# arrays. The header holds each array's shape list; scalars stay JSON numbers
# (Python's float repr round-trips exactly), so reruns are byte-identical.

def _shape(arr, name: str, payload: list) -> list:
    """Append ``arr`` to ``payload``; returns its shape for the header."""
    a = np.ascontiguousarray(arr, dtype="<f8")
    if not np.all(np.isfinite(a)):
        raise NumericError(f"cannot serialize non-finite values in {name}")
    payload.append(a)
    return list(a.shape)


def save_model(path, model: ModelBundle) -> None:
    """Serialize a ModelBundle: a JSON header line, then the raw array bytes."""
    net = model.net
    slots = _slots(net)  # an unsupported network type raises ParameterError here
    doc: dict = {"format": MODEL_FORMAT, "version": MODEL_VERSION,
                 "basis": net.spec.to_dict() if isinstance(net, KanNetwork) else None,
                 "layer_dims": net.dims}
    payload: list[np.ndarray] = []
    for owner, key, _, block in slots:
        shapes = doc.setdefault(block, [])
        shapes.append(_shape(owner[key], f"{block}[{len(shapes)}]", payload))
    doc["target_affine"] = {"mean": float(model.target_mean), "std": float(model.target_std)}

    def _std_block(std, name):
        if std is None:
            return None
        return {"means": _shape(std.means, f"{name}.means", payload),
                "stds": _shape(std.stds, f"{name}.stds", payload),
                "epsilon": float(std.epsilon)}

    doc["standardizer"] = _std_block(model.standardizer, "standardizer")
    doc["feature_scaler"] = _std_block(model.feature_scaler, "feature_scaler")
    if model.pca is not None:
        doc["pca"] = {
            "mean": _shape(model.pca.mean, "pca.mean", payload),
            "components": _shape(model.pca.components, "pca.components", payload),
            "eigenvalues": _shape(model.pca.eigenvalues, "pca.eigenvalues", payload),
            "tau": float(model.pca.tau) if model.pca.tau is not None else None,
        }
    else:
        doc["pca"] = None
    doc["meta"] = model.meta or {}
    try:  # ASCII-only output, so the header holds no newline byte
        text = json.dumps(doc, allow_nan=False, separators=(",", ":"))
    except ValueError as e:
        raise NumericError(f"cannot serialize a non-finite number: {e}") from None
    except TypeError as e:
        raise ParameterError(f"cannot serialize the model to JSON: {e}") from None
    _atomic_write(path, [(text + "\n").encode("ascii")] + [a.data for a in payload])


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FormatError(message)


class _Payload:
    """The bytes after a version-4 header, read front to back by a cursor."""

    def __init__(self, fh):
        self.data = bytearray(max(0, os.fstat(fh.fileno()).st_size - fh.tell()))
        del self.data[fh.readinto(self.data):]  # a file that shrank meanwhile
        self.pos = 0

    def take(self, nbytes: int, block: str) -> np.ndarray:
        """The float64 values of ``block``: the next ``nbytes`` bytes, no copy."""
        end = self.pos + nbytes
        _require(end <= len(self.data),
                 f"{block} needs payload bytes {self.pos} to {end}, "
                 f"the payload holds {len(self.data)}")
        arr = np.frombuffer(self.data, dtype="<f8", count=nbytes // 8, offset=self.pos)
        self.pos = end
        return arr


def _finite(shape, block: str, payload: _Payload) -> np.ndarray:
    """The next array of ``payload``, ``block``, of the header's ``shape`` list.

    A missing or malformed shape, a payload too short for it, or non-finite
    values raise a FormatError naming ``block``.
    """
    _require(shape is not None, f"{block} is missing")
    _require(isinstance(shape, list)
             and all(type(d) is int and d >= 0 for d in shape),
             f"{block} has an invalid shape {shape!r}")
    arr = payload.take(8 * math.prod(shape), block)
    arr = arr.astype(np.float64, copy=False).reshape(shape)
    _require(bool(np.all(np.isfinite(arr))), f"{block} holds non-finite values")
    return arr


def _object(doc: dict, key: str, nullable: bool = False) -> dict | None:
    """The JSON object under ``key``, which every file holds; null only if ``nullable``."""
    _require(key in doc, f"{key} is missing")
    if doc[key] is None and nullable:
        return None
    _require(isinstance(doc[key], dict), f"{key} must be a JSON object")
    return doc[key]


def load_model(path) -> ModelBundle:
    """Load a version-4 model file, validating every field."""
    with open(path, "rb") as fh:
        try:
            doc = json.loads(fh.readline().decode("utf-8"))
        except UnicodeDecodeError:
            raise utf8_error(path) from None
        except json.JSONDecodeError as e:
            raise ParseError(f"malformed model file: {e.msg}",
                             line=e.lineno, column=e.colno, offset=e.pos) from e
        except ValueError as e:  # an integer beyond Python's digit limit
            raise ParseError(f"malformed model file: {e}") from None
        _require(isinstance(doc, dict), "model file must hold a JSON object")
        _require(doc.get("format") == MODEL_FORMAT,
                 f"not a {MODEL_FORMAT} file (format={doc.get('format')!r})")
        version = doc.get("version")
        if type(version) is not int or version != MODEL_VERSION:
            raise UnsupportedVersionError(
                f"model file version {version!r} is not supported (expected {MODEL_VERSION})")
        payload = _Payload(fh)
    dims = doc.get("layer_dims")
    _require(isinstance(dims, list) and len(dims) >= 2, "layer_dims missing or too short")
    for l, d in enumerate(dims):  # the rule _check_dims applies at init
        _require(type(d) is int and d >= 1,
                 f"layer_dims[{l}] must be an integer >= 1, got {d!r}")
    basis = _object(doc, "basis", nullable=True)
    try:
        spec = None if basis is None else BasisSpec.from_dict(basis)  # None: the MLP
    except ParameterError as e:
        raise FormatError(f"basis is invalid: {e}") from None
    net = _skeleton(dims, spec)
    read = Counter()  # arrays read per header key
    for owner, key, _, block in _slots(net):
        shapes, l = doc.get(block), read[block]
        _require(isinstance(shapes, list) and len(shapes) == len(dims) - 1,
                 f"{block} does not hold one shape per layer of layer_dims")
        arr = _finite(shapes[l], f"{block}[{l}]", payload)
        _require(arr.shape == owner[key],
                 f"{block}[{l}] has shape {arr.shape}, expected {owner[key]}")
        owner[key] = arr
        read[block] += 1

    def _std_from(name):
        block = _object(doc, name, nullable=True)
        if block is None:
            return None
        means = _finite(block.get("means"), f"{name}.means", payload)
        stds = _finite(block.get("stds"), f"{name}.stds", payload)
        _require(means.ndim == 1 and stds.shape == means.shape,
                 f"{name} has means of shape {means.shape} and stds of shape {stds.shape}")
        return Standardizer(means=means, stds=stds,
                            epsilon=json_number(block.get("epsilon"), float, f"{name}.epsilon"))

    std = _std_from("standardizer")
    scaler = _std_from("feature_scaler")
    pca = None
    p = _object(doc, "pca", nullable=True)
    if p is not None:
        mean = _finite(p.get("mean"), "pca.mean", payload)
        components = _finite(p.get("components"), "pca.components", payload)
        eigenvalues = _finite(p.get("eigenvalues"), "pca.eigenvalues", payload)
        d = mean.shape
        _require(len(d) == 1 and eigenvalues.shape == d
                 and components.ndim == 2 and components.shape[1:] == d,
                 f"pca has mean {d}, eigenvalues {eigenvalues.shape} and components "
                 f"{components.shape}; expected [d], [d] and [k, d]")
        _require("tau" in p, "pca.tau is missing")
        pca = PcaModel(mean=mean, components=components, eigenvalues=eigenvalues,
                       k=components.shape[0],
                       tau=None if p["tau"] is None else json_number(p["tau"], float, "pca.tau"))
    _require(payload.pos == len(payload.data),
             f"the payload holds {len(payload.data) - payload.pos} bytes after its last block")
    affine = _object(doc, "target_affine")
    return ModelBundle(net=net, standardizer=std, pca=pca, feature_scaler=scaler,
                       target_mean=json_number(affine.get("mean"), float, "target_affine.mean"),
                       target_std=json_number(affine.get("std"), float, "target_affine.std"),
                       meta=_object(doc, "meta"))
