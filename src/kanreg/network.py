"""KAN regression networks built from learned univariate edge functions.

A layer maps ``in_dim`` inputs to ``out_dim`` node activations

    y[q] = sum_i phi[q, i](x[i])

where each edge function ``phi[q, i]`` is a coefficient combination of one
basis family (or a scaled/shifted Mexican hat for the wavelet family).
Bounded-domain families receive tanh-squashed layer inputs; the backward
pass carries the matching chain factor. The module also provides the
input-size driven architecture rule, a fixed-architecture MLP baseline, and
versioned JSON model files.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, basis_size, eval_mexican_hat, evaluate_basis
from .errors import (ContractError, FormatError, NumericError, ParameterError,
                     ParseError, ShapeError, UnsupportedVersionError)
from .linalg import Rng
from .data import Standardizer, apply_standardizer, atomic_write_text
from .pca import PcaModel, transform as pca_transform

MODEL_FORMAT = "kanreg-model"
MODEL_VERSION = 1


@dataclass
class KanLayer:
    in_dim: int
    out_dim: int
    coeffs: np.ndarray                    # [out_dim, in_dim, basis_size]
    scales: np.ndarray | None = None      # wavelet only, [out_dim, in_dim]
    shifts: np.ndarray | None = None      # wavelet only, [out_dim, in_dim]


@dataclass
class KanNetwork:
    spec: BasisSpec
    layers: list[KanLayer]

    @property
    def dims(self) -> list[int]:
        return [self.layers[0].in_dim] + [layer.out_dim for layer in self.layers]

    def clone(self) -> "KanNetwork":
        return copy.deepcopy(self)


@dataclass
class MlpNetwork:
    """Plain rectifier MLP baseline; hidden layers ReLU, linear head."""

    weights: list[np.ndarray]             # per layer [out_dim, in_dim]
    biases: list[np.ndarray]              # per layer [out_dim]

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def clone(self) -> "MlpNetwork":
        return copy.deepcopy(self)


MLP_HIDDEN_DIMS = (1024, 512, 256, 128)


def mlp_dims(input_dim: int) -> list[int]:
    """Baseline stack [input_dim, 1024, 512, 256, 128, 1]."""
    if input_dim < 1:
        raise ParameterError(f"input_dim must be >= 1, got {input_dim}")
    return [input_dim, *MLP_HIDDEN_DIMS, 1]


@dataclass
class GradientSet:
    """Flat, ordered gradient arrays aligned with :func:`params_of`."""

    arrays: list[np.ndarray]
    labels: list[str]


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


def six_layer_dims(input_dim: int, output_dim: int = 1) -> list[int]:
    """Deep preset [input_dim, 512, 256, 128, 64, output_dim]."""
    if input_dim < 1:
        raise ParameterError(f"input_dim must be >= 1, got {input_dim}")
    if output_dim < 1:
        raise ParameterError(f"output_dim must be >= 1, got {output_dim}")
    return [input_dim, 512, 256, 128, 64, output_dim]


def _check_dims(dims) -> list[int]:
    dims = [int(d) for d in dims]
    if len(dims) < 2:
        raise ParameterError(f"a network needs at least 2 dims, got {dims}")
    if any(d < 1 for d in dims):
        raise ParameterError(f"all layer dims must be >= 1, got {dims}")
    return dims


def init_network(dims, spec: BasisSpec, rng: Rng) -> KanNetwork:
    """Fresh network with coefficients i.i.d. uniform on +-sqrt(6/(in*b + out)).

    Draw order is fixed (layer by layer, coefficients row-major over
    ``[out, in, b]``) so a given seed always produces the same network.
    Wavelet edges start at scale 1 and shift 0.
    """
    dims = _check_dims(dims)
    b = basis_size(spec)
    wavelet = spec.family == "wavelet_mexican_hat"
    layers = []
    for din, dout in zip(dims[:-1], dims[1:]):
        bound = math.sqrt(6.0 / (din * b + dout))
        coeffs = (2.0 * rng.uniforms(dout * din * b).reshape(dout, din, b) - 1.0) * bound
        scales = np.ones((dout, din)) if wavelet else None
        shifts = np.zeros((dout, din)) if wavelet else None
        layers.append(KanLayer(din, dout, coeffs, scales, shifts))
    return KanNetwork(spec=spec, layers=layers)


def init_mlp(dims, rng: Rng) -> MlpNetwork:
    """MLP with weights uniform on +-sqrt(6/(in + out)) and zero biases."""
    dims = _check_dims(dims)
    if dims[-1] != 1:
        raise ParameterError(f"regression networks end in one output, got dims {dims}")
    weights = []
    biases = []
    for din, dout in zip(dims[:-1], dims[1:]):
        bound = math.sqrt(6.0 / (din + dout))
        weights.append((2.0 * rng.uniforms(dout * din).reshape(dout, din) - 1.0) * bound)
        biases.append(np.zeros(dout))
    return MlpNetwork(weights=weights, biases=biases)


def params_of(net) -> tuple[list[np.ndarray], list[str]]:
    """All trainable arrays of ``net`` in canonical order, with labels."""
    arrays: list[np.ndarray] = []
    labels: list[str] = []
    if isinstance(net, KanNetwork):
        for l, layer in enumerate(net.layers):
            arrays.append(layer.coeffs)
            labels.append(f"layer{l}.coeffs")
            if layer.scales is not None:
                arrays.append(layer.scales)
                labels.append(f"layer{l}.scales")
                arrays.append(layer.shifts)
                labels.append(f"layer{l}.shifts")
    elif isinstance(net, MlpNetwork):
        for l, (w, b) in enumerate(zip(net.weights, net.biases)):
            arrays.append(w)
            labels.append(f"layer{l}.weights")
            arrays.append(b)
            labels.append(f"layer{l}.biases")
    else:
        raise ParameterError(f"unsupported network type {type(net).__name__}")
    return arrays, labels


def _as_batch(x, expected_dim: int) -> np.ndarray:
    xa = np.asarray(x, dtype=np.float64)
    if xa.ndim != 2:
        raise ShapeError(f"network input must be 2-D [n, features], got ndim={xa.ndim}")
    if xa.shape[1] != expected_dim:
        raise ShapeError(
            f"network expects {expected_dim} input features, got {xa.shape[1]}")
    return xa


def forward(net, x, want_cache: bool = True):
    """Run the network on a batch; returns ``(outputs, cache)``.

    ``outputs`` is the length-n prediction vector. ``cache`` holds the
    per-layer intermediates :func:`backward` needs (or None when
    ``want_cache`` is false).
    """
    if isinstance(net, MlpNetwork):
        return mlp_forward(net, x, want_cache)
    spec = net.spec
    squash = spec.squashes_input()
    wavelet = spec.family == "wavelet_mexican_hat"
    if net.layers[-1].out_dim != 1:
        raise ShapeError(
            f"forward needs a scalar-output network, got out_dim={net.layers[-1].out_dim}")
    cur = _as_batch(x, net.layers[0].in_dim)
    n = cur.shape[0]
    layer_data: list[dict] = []
    for l, layer in enumerate(net.layers):
        u = np.tanh(cur) if squash else cur
        if wavelet:
            val, d_x, d_scale, d_shift = eval_mexican_hat(
                u[:, None, :], layer.scales[None, :, :], layer.shifts[None, :, :])
            out = np.einsum("oi,noi->no", layer.coeffs[:, :, 0], val)
            if want_cache:
                layer_data.append({"squashed": u if squash else None, "values": val,
                                   "d_x": d_x, "d_scale": d_scale, "d_shift": d_shift})
        else:
            val, dval = evaluate_basis(spec, u)
            out = val.reshape(n, -1) @ layer.coeffs.reshape(layer.out_dim, -1).T
            if want_cache:
                layer_data.append({"squashed": u if squash else None,
                                   "values": val, "d_values": dval})
        if not np.all(np.isfinite(out)):
            raise NumericError("non-finite activation in forward pass", layer=l)
        cur = out
    cache = ForwardCache(net=net, n=n, layer_data=layer_data) if want_cache else None
    return cur[:, 0], cache


def backward(net, cache: ForwardCache, out_grads) -> GradientSet:
    """Reverse-mode gradients of ``sum(out_grads * outputs)`` w.r.t. params.

    ``cache`` must come from a :func:`forward` call on the same network
    object with caching enabled, otherwise a ContractError is raised.
    The gradient with respect to the network input (layer 0's input
    gradient) is not computed, since no parameter depends on it.
    """
    if isinstance(net, MlpNetwork):
        return mlp_backward(net, cache, out_grads)
    if cache is None or cache.net is not net:
        raise ContractError("backward needs the cache produced by forward on this network")
    if len(cache.layer_data) != len(net.layers):
        raise ContractError("stale cache: layer count does not match the network")
    g = np.asarray(out_grads, dtype=np.float64).reshape(-1)
    if g.size != cache.n:
        raise ShapeError(f"out_grads has length {g.size}, expected {cache.n}")
    grad = g[:, None]
    squash = net.spec.squashes_input()
    per_layer: list[tuple] = []
    for l in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[l]
        data = cache.layer_data[l]
        val = data["values"]
        if layer.scales is not None:  # wavelet
            coeff_grad = np.einsum("no,noi->oi", grad, val)[:, :, None]
            common = grad[:, :, None] * layer.coeffs[:, :, 0][None, :, :]
            scale_grad = np.einsum("noi,noi->oi", common, data["d_scale"])
            shift_grad = np.einsum("noi,noi->oi", common, data["d_shift"])
            per_layer.append((l, [coeff_grad, scale_grad, shift_grad]))
            if l == 0:
                break
            du = np.einsum("noi,noi->ni", common, data["d_x"])
        else:
            n = val.shape[0]
            coeff_grad = (grad.T @ val.reshape(n, -1)).reshape(layer.coeffs.shape)
            per_layer.append((l, [coeff_grad]))
            if l == 0:
                break
            p = (grad @ layer.coeffs.reshape(layer.out_dim, -1)).reshape(val.shape)
            du = np.sum(p * data["d_values"], axis=-1)
        if squash:
            u = data["squashed"]
            grad = du * (1.0 - u * u)
        else:
            grad = du
    per_layer.sort(key=lambda item: item[0])
    arrays: list[np.ndarray] = []
    labels: list[str] = []
    for l, grads in per_layer:
        arrays.append(grads[0])
        labels.append(f"layer{l}.coeffs")
        if len(grads) == 3:
            arrays.append(grads[1])
            labels.append(f"layer{l}.scales")
            arrays.append(grads[2])
            labels.append(f"layer{l}.shifts")
    return GradientSet(arrays=arrays, labels=labels)


def mlp_forward(net: MlpNetwork, x, want_cache: bool = True):
    cur = _as_batch(x, net.weights[0].shape[1])
    n = cur.shape[0]
    last = len(net.weights) - 1
    layer_data: list[dict] = []
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = cur @ w.T + b
        if not np.all(np.isfinite(pre)):
            raise NumericError("non-finite activation in forward pass", layer=l)
        out = pre if l == last else np.maximum(pre, 0.0)
        if want_cache:
            layer_data.append({"input": cur, "pre": pre})
        cur = out
    cache = ForwardCache(net=net, n=n, layer_data=layer_data) if want_cache else None
    return cur[:, 0], cache


def mlp_backward(net: MlpNetwork, cache: ForwardCache, out_grads) -> GradientSet:
    if cache is None or cache.net is not net:
        raise ContractError("backward needs the cache produced by forward on this network")
    if len(cache.layer_data) != len(net.weights):
        raise ContractError("stale cache: layer count does not match the network")
    g = np.asarray(out_grads, dtype=np.float64).reshape(-1)
    if g.size != cache.n:
        raise ShapeError(f"out_grads has length {g.size}, expected {cache.n}")
    grad = g[:, None]
    w_grads: list[np.ndarray | None] = [None] * len(net.weights)
    b_grads: list[np.ndarray | None] = [None] * len(net.weights)
    for l in range(len(net.weights) - 1, -1, -1):
        data = cache.layer_data[l]
        w_grads[l] = grad.T @ data["input"]
        b_grads[l] = grad.sum(axis=0)
        if l > 0:
            grad = grad @ net.weights[l]
            grad = grad * (cache.layer_data[l - 1]["pre"] > 0.0)
    arrays: list[np.ndarray] = []
    labels: list[str] = []
    for l in range(len(net.weights)):
        arrays.append(w_grads[l])
        labels.append(f"layer{l}.weights")
        arrays.append(b_grads[l])
        labels.append(f"layer{l}.biases")
    return GradientSet(arrays=arrays, labels=labels)


def estimate_forward_cost(dims, spec: BasisSpec) -> int:
    """Multiply-accumulate count sum_l dims[l] * b * dims[l+1].

    For coefficient families this equals the number of learned
    coefficients; the wavelet family adds its per-edge scale/shift on top.
    """
    dims = _check_dims(dims)
    b = basis_size(spec)
    return int(sum(dims[l] * b * dims[l + 1] for l in range(len(dims) - 1)))


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


def predict(model, features) -> np.ndarray:
    """Raw-scale predictions for raw feature rows.

    ``model`` may be a ModelBundle or a bare network (then features must
    already be in network coordinates).
    """
    if not isinstance(model, ModelBundle):
        model = ModelBundle(net=model)
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2:
        raise ShapeError(f"features must be 2-D [n, d], got ndim={f.ndim}")
    if model.standardizer is not None:
        if f.shape[1] != model.standardizer.means.size:
            raise ShapeError(
                f"model was fit on {model.standardizer.means.size} features, "
                f"table has {f.shape[1]}")
        f = apply_standardizer(model.standardizer, f)
    if model.pca is not None:
        f = pca_transform(model.pca, f)
    if model.feature_scaler is not None:
        f = apply_standardizer(model.feature_scaler, f)
    out, _ = forward(model.net, f, want_cache=False)
    return out * model.target_std + model.target_mean


# ---------------------------------------------------------------------------
# Model files: versioned JSON with floats printed at 17 significant digits
# so values round-trip bit for bit and reruns are byte-identical.

def _json_dump(obj) -> str:
    parts: list[str] = []
    _json_write(obj, parts)
    return "".join(parts)


def _json_write(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise NumericError("cannot serialize a non-finite number")
        parts.append(f"{obj:.17g}")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _json_write(item, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(k)))
            parts.append(":")
            _json_write(v, parts)
        parts.append("}")
    else:
        raise ParameterError(f"cannot serialize {type(obj).__name__} to JSON")


def save_model(path, model: ModelBundle) -> None:
    """Serialize a ModelBundle (or bare network wrapped in one) to JSON."""
    if not isinstance(model, ModelBundle):
        model = ModelBundle(net=model)
    net = model.net
    doc: dict = {"format": MODEL_FORMAT, "version": MODEL_VERSION}
    if isinstance(net, MlpNetwork):
        doc["family"] = "mlp"
        doc["layer_dims"] = net.dims
        doc["mlp_weights"] = [w.tolist() for w in net.weights]
        doc["mlp_biases"] = [b.tolist() for b in net.biases]
    elif isinstance(net, KanNetwork):
        doc["family"] = net.spec.family
        doc["basis"] = net.spec.to_dict()
        doc["layer_dims"] = net.dims
        doc["coeffs"] = [layer.coeffs.tolist() for layer in net.layers]
        if net.spec.family == "wavelet_mexican_hat":
            doc["wavelet_scales"] = [layer.scales.tolist() for layer in net.layers]
            doc["wavelet_shifts"] = [layer.shifts.tolist() for layer in net.layers]
    else:
        raise ParameterError(f"unsupported network type {type(net).__name__}")
    doc["target_affine"] = {"mean": float(model.target_mean), "std": float(model.target_std)}

    def _std_block(std):
        if std is None:
            return None
        return {"means": std.means.tolist(), "stds": std.stds.tolist(),
                "epsilon": float(std.epsilon)}

    doc["standardizer"] = _std_block(model.standardizer)
    doc["feature_scaler"] = _std_block(model.feature_scaler)
    if model.pca is not None:
        doc["pca"] = {
            "mean": model.pca.mean.tolist(),
            "components": model.pca.components.tolist(),
            "eigenvalues": model.pca.eigenvalues.tolist(),
            "k": int(model.pca.k),
            "tau": float(model.pca.tau) if model.pca.tau is not None else None,
        }
    else:
        doc["pca"] = None
    doc["meta"] = model.meta or {}
    atomic_write_text(path, _json_dump(doc) + "\n")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FormatError(message)


def _finite(value, block: str) -> np.ndarray:
    """``value`` as a float64 array, or a FormatError naming ``block``.

    ``json.loads`` accepts ``NaN`` and ``Infinity`` literals, so every
    numeric block read from a model file passes through here.
    """
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise FormatError(f"{block} is not a numeric array") from None
    _require(bool(np.all(np.isfinite(arr))), f"{block} holds non-finite values")
    return arr


def load_model(path) -> ModelBundle:
    """Load a model file, validating container format and version."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed model file: {e.msg}",
                         line=e.lineno, column=e.colno, offset=e.pos) from e
    _require(isinstance(doc, dict), "model file must hold a JSON object")
    _require(doc.get("format") == MODEL_FORMAT,
             f"not a {MODEL_FORMAT} file (format={doc.get('format')!r})")
    version = doc.get("version")
    if version != MODEL_VERSION:
        raise UnsupportedVersionError(
            f"model file version {version!r} is not supported (expected {MODEL_VERSION})")
    dims = doc.get("layer_dims")
    _require(isinstance(dims, list) and len(dims) >= 2, "layer_dims missing or too short")
    dims = [int(d) for d in dims]
    family = doc.get("family")
    if family == "mlp":
        weights = doc.get("mlp_weights")
        biases = doc.get("mlp_biases")
        _require(isinstance(weights, list) and isinstance(biases, list)
                 and len(weights) == len(dims) - 1 and len(biases) == len(dims) - 1,
                 "mlp weights/biases do not match layer_dims")
        ws = []
        bs = []
        for l, (w, b) in enumerate(zip(weights, biases)):
            wa = _finite(w, f"mlp_weights[{l}]")
            ba = _finite(b, f"mlp_biases[{l}]")
            _require(wa.shape == (dims[l + 1], dims[l]) and ba.shape == (dims[l + 1],),
                     f"mlp layer {l} has wrong shape")
            ws.append(wa)
            bs.append(ba)
        net: object = MlpNetwork(weights=ws, biases=bs)
    else:
        spec = BasisSpec.from_dict(doc.get("basis") or {"family": family})
        coeffs = doc.get("coeffs")
        _require(isinstance(coeffs, list) and len(coeffs) == len(dims) - 1,
                 "coeffs do not match layer_dims")
        b = basis_size(spec)
        wavelet = spec.family == "wavelet_mexican_hat"
        scales = doc.get("wavelet_scales") if wavelet else [None] * (len(dims) - 1)
        shifts = doc.get("wavelet_shifts") if wavelet else [None] * (len(dims) - 1)
        if wavelet:
            _require(isinstance(scales, list) and len(scales) == len(dims) - 1
                     and isinstance(shifts, list) and len(shifts) == len(dims) - 1,
                     "wavelet scales/shifts do not match layer_dims")
        layers = []
        for l in range(len(dims) - 1):
            ca = _finite(coeffs[l], f"coeffs[{l}]")
            _require(ca.shape == (dims[l + 1], dims[l], b),
                     f"coeff block {l} has shape {ca.shape}, expected {(dims[l + 1], dims[l], b)}")
            sa = ta = None
            if wavelet:
                sa = _finite(scales[l], f"wavelet_scales[{l}]")
                ta = _finite(shifts[l], f"wavelet_shifts[{l}]")
                _require(sa.shape == (dims[l + 1], dims[l]) and ta.shape == (dims[l + 1], dims[l]),
                         f"wavelet block {l} has wrong shape")
            layers.append(KanLayer(dims[l], dims[l + 1], ca, sa, ta))
        net = KanNetwork(spec=spec, layers=layers)
    def _std_from(name):
        block = doc.get(name)
        if block is None:
            return None
        return Standardizer(means=_finite(block["means"], f"{name}.means"),
                            stds=_finite(block["stds"], f"{name}.stds"),
                            epsilon=float(_finite(block.get("epsilon", 1e-8),
                                                  f"{name}.epsilon")))

    std = _std_from("standardizer")
    scaler = _std_from("feature_scaler")
    pca = None
    if doc.get("pca") is not None:
        p = doc["pca"]
        pca = PcaModel(mean=_finite(p["mean"], "pca.mean"),
                       components=_finite(p["components"], "pca.components"),
                       eigenvalues=_finite(p["eigenvalues"], "pca.eigenvalues"),
                       k=int(p["k"]),
                       tau=(float(_finite(p["tau"], "pca.tau"))
                            if p.get("tau") is not None else None))
    affine = doc.get("target_affine") or {"mean": 0.0, "std": 1.0}
    return ModelBundle(net=net, standardizer=std, pca=pca, feature_scaler=scaler,
                       target_mean=float(_finite(affine.get("mean", 0.0), "target_affine.mean")),
                       target_std=float(_finite(affine.get("std", 1.0), "target_affine.std")),
                       meta=doc.get("meta") or {})
