"""Equivariant perceptron stacks with shared coefficients.

Layers never store a free m x n weight matrix: the trainable state is one
coefficient per signed orbit of the equivariant basis, and the matrix is
scattered from those coefficients once per change of them or of the basis,
then kept read-only.  Gradients flow through the same scatter, so training
loops outside this module only ever see the coefficient vectors.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .basis import EquivBasis, bias_basis, orbit_basis
from .errors import DegenerateBasis, DimMismatch, ParseError, check_finite, parse_float
from .fileio import atomic_write_text, errors_named, json_input
from .groups import FiniteGroup, Representation, act, tiled_regular_representation

_SELU_ALPHA = 1.6732632423543772848170429916717
_SELU_SCALE = 1.0507009873554804934193349852946


class Nonlinearity(NamedTuple):
    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    gain: float  # E[sigma(z)^2] for z ~ N(0, 1)
    odd: bool


@lru_cache(maxsize=1)
def _tanh_gain() -> float:
    # E[tanh(z)^2], z ~ N(0,1), by Gauss-Hermite quadrature; regenerated at
    # runtime rather than hardcoded.
    nodes, weights = np.polynomial.hermite.hermgauss(80)
    return float(np.sum(weights * np.tanh(math.sqrt(2.0) * nodes) ** 2) / math.sqrt(math.pi))


def _selu(z: np.ndarray) -> np.ndarray:
    return _SELU_SCALE * np.where(z > 0, z, _SELU_ALPHA * np.expm1(z))


def _selu_deriv(z: np.ndarray) -> np.ndarray:
    return _SELU_SCALE * np.where(z > 0, 1.0, _SELU_ALPHA * np.exp(z))


def get_nonlinearity(name: str) -> Nonlinearity:
    key = name.lower()
    if key == "relu":
        return Nonlinearity("relu", lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(float), 0.5, False)
    if key == "selu":
        return Nonlinearity("selu", _selu, _selu_deriv, 1.0, False)
    if key == "tanh":
        return Nonlinearity("tanh", np.tanh, lambda z: 1.0 - np.tanh(z) ** 2, _tanh_gain(), True)
    if key == "identity":
        return Nonlinearity("identity", lambda z: z, lambda z: np.ones_like(z), 1.0, True)
    raise ValueError(f"unknown nonlinearity {name!r}")


def init_variance(basis: EquivBasis, nonlinearity: Nonlinearity, mode: str | float) -> float:
    """Coefficient variance that keeps activations (fan_in) or gradients
    (fan_out) at constant variance across layers."""
    lam = basis.total_entries
    if lam == 0:
        raise DegenerateBasis("basis has no free orbits; all weights are pinned to zero")
    if mode == "fan_in":
        return basis.m / (lam * nonlinearity.gain)
    if mode == "fan_out":
        return basis.n / (lam * nonlinearity.gain)
    if not isinstance(mode, str):  # a constant variance, the control case
        return float(mode)
    raise ValueError(f"mode must be fan_in or fan_out, got {mode!r}")


def init_coeffs(
    basis: EquivBasis,
    nonlinearity: Nonlinearity,
    mode: str = "fan_in",
    rng_seed=0,
) -> np.ndarray:
    """Sample coefficients i.i.d. from N(0, var) with the mode's variance."""
    rng = np.random.default_rng(rng_seed)
    var = init_variance(basis, nonlinearity, mode)
    return rng.normal(0.0, math.sqrt(var), size=basis.rank)


@lru_cache(maxsize=128)
def _cached_bases(rep_in: Representation, rep_out: Representation) -> tuple[EquivBasis, EquivBasis]:
    return orbit_basis(rep_in, rep_out), bias_basis(rep_out)


class EquivLayer:
    """One perceptron layer y = sigma(W x + b) with orbit-shared parameters."""

    def __init__(
        self,
        rep_in: Representation,
        rep_out: Representation,
        nonlinearity: Nonlinearity,
        coeffs: np.ndarray | None = None,
        bias_coeffs: np.ndarray | None = None,
    ):
        basis, bias = _cached_bases(rep_in, rep_out)
        if not nonlinearity.odd and not rep_out.is_unsigned:
            raise ValueError(
                f"nonlinearity {nonlinearity.name!r} is not odd and does not commute "
                "with a signed output representation"
            )
        self.rep_in = rep_in
        self.rep_out = rep_out
        self.nonlinearity = nonlinearity
        self.basis = basis
        self.bias_basis = bias
        self._dense: dict[str, tuple] = {}  # kind -> (basis, coefficient bits, array)
        self.coeffs = np.zeros(basis.rank) if coeffs is None else np.asarray(coeffs, dtype=float)
        self.bias_coeffs = np.zeros(bias.rank) if bias_coeffs is None else np.asarray(bias_coeffs, dtype=float)
        if self.coeffs.shape != (basis.rank,):
            raise DimMismatch(f"expected {basis.rank} coefficients, got {self.coeffs.shape}")
        if self.bias_coeffs.shape != (bias.rank,):
            raise DimMismatch(f"expected {bias.rank} bias coefficients, got {self.bias_coeffs.shape}")

    @property
    def m(self) -> int:
        return self.rep_out.dim

    @property
    def n(self) -> int:
        return self.rep_in.dim

    def weight(self) -> np.ndarray:
        return self._scatter("weight", self.basis, self.coeffs, (self.m, self.n))

    def bias(self) -> np.ndarray:
        return self._scatter("bias", self.bias_basis, self.bias_coeffs, (self.m,))

    def _scatter(self, kind: str, basis: EquivBasis, coeffs: np.ndarray, shape) -> np.ndarray:
        """The read-only dense array of ``coeffs`` on ``basis``, scattered again only
        when the basis object or the coefficients' bits change (assigned or in place)."""
        bits = np.asarray(coeffs, dtype=float).tobytes()
        kept = self._dense.get(kind)
        if kept is None or kept[0] is not basis or kept[1] != bits:
            o = basis.orbits
            flat = np.zeros(math.prod(shape))
            flat[o.index] = o.sign * np.frombuffer(bits)[o.orbit]  # the array matches its key
            flat.flags.writeable = False
            kept = self._dense[kind] = (basis, bits, flat.reshape(shape))
        return kept[2]

    def coeff_grads(self, dw: np.ndarray, db: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Contract dense weight/bias gradients onto the shared coefficients."""
        o, ob = self.basis.orbits, self.bias_basis.orbits
        dbeta = np.bincount(o.orbit, weights=o.sign * dw.ravel()[o.index], minlength=self.basis.rank)
        dbias = np.bincount(ob.orbit, weights=ob.sign * db[ob.index], minlength=self.bias_basis.rank)
        return dbeta, dbias


class EquivNet:
    """Stack of EquivLayers with matching interface representations."""

    def __init__(self, layers: Sequence[EquivLayer]):
        if not layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.rep_out != b.rep_in:
                raise DimMismatch(
                    f"layer boundary mismatch: {a.rep_out.dim} -> {b.rep_in.dim} "
                    "(adjacent layers must share the intermediate representation)"
                )
        self.layers = list(layers)
        self._memo = None  # the last forward pass, for grad_coeffs to reuse

    @property
    def rep_in(self) -> Representation:
        return self.layers[0].rep_in

    @property
    def rep_out(self) -> Representation:
        return self.layers[-1].rep_out

    @property
    def input_dim(self) -> int:
        return self.rep_in.dim


def forward(net: EquivNet, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Evaluate the net; returns the output and each layer's pre-activation z.

    ``x`` may be a single vector or a (batch, dim) array; the output matches.
    The z arrays are read-only, and the pass is also kept on the net with its
    own copy of ``x`` until the next forward or grad_coeffs.
    """
    net._memo = None
    x = np.array(x, dtype=float)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.shape[1] != net.input_dim:
        raise DimMismatch(f"input width {h.shape[1]}, network expects {net.input_dim}")
    zs: list[np.ndarray] = []
    params = []  # each layer's (W, b, nonlinearity) as this pass read them
    for layer in net.layers:
        w, b, sigma = layer.weight(), layer.bias(), layer.nonlinearity
        z = h @ w.T
        z += b
        del h  # freed before sigma(z) is made, so two layer outputs never coexist
        z.flags.writeable = False
        zs.append(z)
        params.append((w, b, sigma))
        h = sigma.fn(z)
    h = h if h.flags.writeable else h.copy()  # the identity head returns z itself
    net._memo = (x, list(net.layers), params, tuple(zs))
    return (h[0] if single else h), zs


def _holds(net: EquivNet, memo, x: np.ndarray) -> bool:
    """Whether ``memo``, a pass kept by ``forward``, ran on x's shape and bits with
    the layer objects, W, b and nonlinearities the net holds now."""
    kept_x, layers, params, _ = memo
    return (kept_x.shape == x.shape and kept_x.tobytes() == x.tobytes() and layers == net.layers
            and all(w is layer.weight() and b is layer.bias() and sigma is layer.nonlinearity
                    for layer, (w, b, sigma) in zip(layers, params)))


class LayerGrads(NamedTuple):
    coeffs: np.ndarray
    bias_coeffs: np.ndarray


def grad_coeffs(net: EquivNet, x: np.ndarray, loss_grad_y: np.ndarray) -> list[LayerGrads]:
    """Backpropagate dL/dy onto every layer's shared coefficients.

    The gradient of a coefficient aggregates the per-entry weight gradients
    over its orbit with the orbit's signs.  Batched inputs sum over the
    batch.  The pass kept by the last ``forward`` is taken from the net and
    reused if it still holds (see ``_holds``); else forward runs again.
    """
    x = np.asarray(x, dtype=float)
    memo, net._memo = net._memo, None
    if memo is None or not _holds(net, memo, x):
        forward(net, x)
        memo, net._memo = net._memo, None
    kept_x, _, params, zs = memo
    y_shape = zs[-1].shape[1:] if x.ndim == 1 else zs[-1].shape
    g = np.asarray(loss_grad_y, dtype=float)
    if g.shape != y_shape:
        raise DimMismatch(f"loss gradient shape {g.shape} does not match output {y_shape}")
    g = g[None, :] if g.ndim == 1 else g
    reversed_grads: list[LayerGrads] = []
    for li in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[li]
        delta = g * layer.nonlinearity.deriv(zs[li])
        # a hidden layer's input is not kept: it is sigma(z) of the layer below, as the pass read sigma
        x_in = params[li - 1][2].fn(zs[li - 1]) if li else np.atleast_2d(kept_x)
        dw = delta.T @ x_in
        db = delta.sum(axis=0)
        dbeta, dbias = layer.coeff_grads(dw, db)
        reversed_grads.append(LayerGrads(dbeta, dbias))
        if li > 0:
            g = delta @ layer.weight()
    return reversed_grads[::-1]


class EquivarianceReport(NamedTuple):
    passed: bool
    max_violation: float
    worst_element: int
    worst_sample: int
    tol: float

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}: max violation {self.max_violation:.3e} (tol {self.tol:.1e}) "
            f"at element {self.worst_element}, sample {self.worst_sample}"
        )


def check_equivariance(
    net: EquivNet, samples: int = 32, tol: float = 1e-10, rng_seed=0
) -> EquivarianceReport:
    """Compare rho_out(g) f(x) against f(rho_in(g) x) on random inputs.

    The report names the first worst (element, sample), element-major; a NaN
    violation counts as the worst and fails the check.
    """
    rng = np.random.default_rng(rng_seed)
    group = net.rep_in.group
    x = rng.standard_normal((samples, net.input_dim))
    y, _ = forward(net, x)
    viol = np.array([
        np.abs(forward(net, act(net.rep_in, g, x))[0] - act(net.rep_out, g, y)).max(axis=1)
        for g in group.elements()
    ])
    g, s = np.unravel_index(np.argmax(viol), viol.shape)
    worst = float(viol[g, s])
    return EquivarianceReport(worst <= tol, worst, int(g), int(s), tol)


def build_mlp(
    rep_in: Representation,
    rep_out: Representation,
    hidden_widths: Sequence[int],
    nonlinearity: Nonlinearity,
    init_mode: str = "fan_in",
    rng_seed=0,
) -> EquivNet:
    """Equivariant MLP with regular-representation hidden layers.

    Hidden widths must be multiples of the group order; the final layer is
    linear (identity nonlinearity) so signed output representations are
    always safe.
    """
    rng = np.random.default_rng(rng_seed)
    group = rep_in.group
    reps = [rep_in] + [tiled_regular_representation(group, w) for w in hidden_widths] + [rep_out]
    sigmas = [nonlinearity] * len(hidden_widths) + [get_nonlinearity("identity")]
    layers = []
    for r_in, r_out, sigma in zip(reps, reps[1:], sigmas):
        layer = EquivLayer(r_in, r_out, sigma)
        layer.coeffs = init_coeffs(layer.basis, sigma, init_mode, rng)
        layers.append(layer)
    return EquivNet(layers)


def activation_variance_profile(
    depth: int,
    width: int,
    group: FiniteGroup,
    nonlinearity: Nonlinearity,
    init_mode="fan_in",
    batch: int = 256,
    rng_seed=0,
) -> np.ndarray:
    """Std of pre-nonlinearity activations per layer on a standard-normal batch.

    All layers act on the group's regular representation tiled to ``width``.
    ``init_mode`` is ``"fan_in"``, ``"fan_out"``, or a float interpreted as a
    constant coefficient variance (the control case).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rng = np.random.default_rng(rng_seed)
    rep = tiled_regular_representation(group, width)
    layers = []
    for _ in range(depth):
        layer = EquivLayer(rep, rep, nonlinearity)
        layer.coeffs = init_coeffs(layer.basis, nonlinearity, init_mode, rng)
        layers.append(layer)
    net = EquivNet(layers)
    x = rng.standard_normal((batch, width))
    _, zs = forward(net, x)
    return np.array([float(z.std()) for z in zs])


def save_weights(net: EquivNet, path: str) -> None:
    """Write the coefficients; a non-finite one is refused, naming its layer,
    before anything is written, as ``load_weights`` would refuse the file."""
    for li, layer in enumerate(net.layers):
        check_finite(f"layer {li}", coeffs=layer.coeffs, bias_coeffs=layer.bias_coeffs)
    data = {
        "layers": [
            {
                "coeffs": layer.coeffs.tolist(),
                "bias_coeffs": layer.bias_coeffs.tolist(),
                "basis_hash": layer.basis.fingerprint,
                "bias_basis_hash": layer.bias_basis.fingerprint,
            }
            for layer in net.layers
        ]
    }
    atomic_write_text(path, json.dumps(data) + "\n")


def load_weights(net: EquivNet, path: str) -> None:
    """Load coefficients into an existing net, checking basis integrity; a
    file that fails on any layer leaves every layer as it was."""
    with json_input(path) as data:
        entries = data.get("layers") if isinstance(data, dict) else None
        if not isinstance(entries, list) or len(entries) != len(net.layers):
            raise ParseError(f"expected a 'layers' list of {len(net.layers)} layers")
        loaded = []
        for li, (layer, entry) in enumerate(zip(net.layers, entries)):
            if not isinstance(entry, dict):
                raise ParseError(f"'layers' entry {li} is not an object")
            for key, what, basis in (("basis_hash", "basis", layer.basis),
                                     ("bias_basis_hash", "bias basis", layer.bias_basis)):
                stored = entry.get(key)
                if stored != basis.fingerprint:  # the file's value is named as repr, on one line
                    raise ParseError(f"layer {li} {what} hash mismatch: file has {stored!r}, "
                                     f"basis is {basis.fingerprint!r}")
            for key in ("coeffs", "bias_coeffs"):
                if key not in entry:
                    raise ParseError(f"layer {li} has no {key!r} key")
            with errors_named(f"layer {li}"):
                coeffs, bias_coeffs = (parse_float(key, entry[key]) for key in ("coeffs", "bias_coeffs"))
            if coeffs.shape != layer.coeffs.shape or bias_coeffs.shape != layer.bias_coeffs.shape:
                raise ParseError(f"layer {li} coefficient count mismatch")
            check_finite(f"layer {li}", coeffs=coeffs, bias_coeffs=bias_coeffs)
            loaded.append((coeffs, bias_coeffs))
    for layer, (coeffs, bias_coeffs) in zip(net.layers, loaded):
        layer.coeffs, layer.bias_coeffs = coeffs, bias_coeffs
