"""Reference implementation of gated cross-attention fusion.

Instance queries attend over multi-scale anatomy tokens and the attended
context is added back through a sigmoid gate:

    context = softmax((Q Wq)(T Wk)^T / sqrt(d)) (T Wv)
    gate    = sigmoid(context Wg + bg)
    output  = Q + gate * context

The anatomy encoder is a pixel-wise linear projection of tissue-class
logits followed by repeated 2x2 average pooling; pooling commutes with the
projection, so the tokens are ``pooled @ anatomy_proj`` for the logits
pooled alike. Everything is plain float64 numpy with hand-derived
gradients, checked against central differences of ``fusion_forward``;
this is a correctness reference, not a training component.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import numpy as np

PARAM_BLOCKS = (
    "queries",
    "gate_weight",
    "gate_bias",
    "query_proj",
    "key_proj",
    "value_proj",
    "anatomy_proj",
)


def _as_float64(name: str, value: Any, ndim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


class _ParamFields(NamedTuple):
    query_proj: np.ndarray   # (d, d)
    key_proj: np.ndarray     # (d, d)
    value_proj: np.ndarray   # (d, d)
    gate_weight: np.ndarray  # (d, d)
    gate_bias: np.ndarray    # (d,)
    anatomy_proj: np.ndarray  # (n_tissue_classes, d)


class FusionParams(_ParamFields):
    """Parameter blocks, all float64 and read-only after construction;
    construction and ``_replace`` both check them."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> FusionParams:
        given = _ParamFields(*args, **kwargs)
        self = super().__new__(cls, *(
            _as_float64(name, value, 1 if name == "gate_bias" else 2)
            for name, value in zip(cls._fields, given)
        ))
        d = self.query_proj.shape[1]
        for name in ("query_proj", "key_proj", "value_proj", "gate_weight"):
            if getattr(self, name).shape != (d, d):
                raise ValueError(
                    f"{name} must be ({d}, {d}), got {getattr(self, name).shape}"
                )
        if self.gate_bias.shape != (d,):
            raise ValueError(f"gate_bias must be ({d},), got {self.gate_bias.shape}")
        if self.anatomy_proj.shape[1] != d:
            raise ValueError(
                f"anatomy_proj must have {d} output channels, "
                f"got {self.anatomy_proj.shape}"
            )
        return self

    @classmethod
    def _make(cls, fields: Any) -> FusionParams:  # `_replace` builds through `_make`
        return cls(*fields)

    @property
    def d(self) -> int:
        return self.query_proj.shape[1]

    @classmethod
    def random(cls, d: int, n_tissue_classes: int, rng: np.random.Generator) -> "FusionParams":
        """Weights with standard deviation 1/sqrt(fan_in), so attention
        logits stay O(1) and the softmax does not saturate as ``d`` grows;
        the gate bias is unit normal."""
        def weight(fan_in: int) -> np.ndarray:
            return rng.standard_normal((fan_in, d)) / np.sqrt(fan_in)

        return cls(
            query_proj=weight(d),
            key_proj=weight(d),
            value_proj=weight(d),
            gate_weight=weight(d),
            gate_bias=rng.standard_normal(d),
            anatomy_proj=weight(n_tissue_classes),
        )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def encode_anatomy(
    logits: np.ndarray, projection: np.ndarray, levels: int
) -> list[np.ndarray]:
    """Project (h, w, c) tissue logits pixel-wise, then build a pyramid of
    2x2 average-pooled levels. Odd trailing rows/columns are dropped."""
    logits = np.asarray(logits, dtype=np.float64)
    projection = np.asarray(projection, dtype=np.float64)
    if logits.ndim != 3:
        raise ValueError(f"logits must be (h, w, c), got shape {logits.shape}")
    if not np.isfinite(logits).all():
        raise ValueError("logits contain non-finite entries")
    if projection.ndim != 2 or projection.shape[0] != logits.shape[2]:
        raise ValueError(
            f"projection {projection.shape} does not accept "
            f"{logits.shape[2]} input channels"
        )
    if levels < 1:
        raise ValueError("levels must be at least 1")
    h, w = logits.shape[:2]
    min_extent = 1 << (levels - 1)
    if h < min_extent or w < min_extent:
        raise ValueError(
            f"spatial extent {h}x{w} too small for {levels} levels "
            f"(needs at least {min_extent})"
        )
    level = logits @ projection
    pyramid = [level]
    for _ in range(levels - 1):
        lh, lw = level.shape[0] // 2, level.shape[1] // 2
        cropped = level[: lh * 2, : lw * 2]
        level = cropped.reshape(lh, 2, lw, 2, -1).mean(axis=(1, 3))
        pyramid.append(level)
    return pyramid


def _flatten_levels(features: list[np.ndarray]) -> np.ndarray:
    """Row-major flatten of every level, concatenated into one token matrix."""
    d = features[0].shape[-1]
    return np.concatenate([lvl.reshape(-1, d) for lvl in features], axis=0)


def _attend(queries: np.ndarray, tokens: np.ndarray, params: FusionParams):
    """The one forward pass of attention, returning its intermediates
    ``q_proj, keys, values, weights, context``."""
    if queries.ndim != 2 or queries.shape[1] != params.d:
        raise ValueError(
            f"queries must be (n, {params.d}), got shape {queries.shape}"
        )
    if tokens.shape[1] != params.d:
        raise ValueError(
            f"feature channels {tokens.shape[1]} do not match d={params.d}"
        )
    q_proj = queries @ params.query_proj
    keys = tokens @ params.key_proj
    values = tokens @ params.value_proj
    scores = (q_proj @ keys.T) * (1.0 / np.sqrt(params.d))
    scores = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(scores)
    weights = exp / exp.sum(axis=1, keepdims=True)
    return q_proj, keys, values, weights, weights @ values


def attention(
    queries: np.ndarray,
    features: list[np.ndarray],
    params: FusionParams,
    return_weights: bool = False,
):
    """Scaled dot-product cross-attention of queries over anatomy tokens."""
    queries = np.asarray(queries, dtype=np.float64)
    *_, weights, context = _attend(queries, _flatten_levels(features), params)
    if return_weights:
        return context, weights
    return context


def _gate(queries: np.ndarray, context: np.ndarray, gate_weight: np.ndarray,
          gate_bias: np.ndarray):
    """The one forward pass of the gate: ``pre_gate, gate, output``."""
    pre_gate = context @ gate_weight + gate_bias
    gate = _sigmoid(pre_gate)
    return pre_gate, gate, queries + gate * context


def gated_fusion(
    queries: np.ndarray,
    context: np.ndarray,
    gate_weight: np.ndarray,
    gate_bias: np.ndarray,
) -> np.ndarray:
    """Residual update gated per query and channel by a sigmoid."""
    queries = np.asarray(queries, dtype=np.float64)
    context = np.asarray(context, dtype=np.float64)
    if queries.shape != context.shape:
        raise ValueError(
            f"queries {queries.shape} and context {context.shape} differ"
        )
    return _gate(queries, context, np.asarray(gate_weight, dtype=np.float64),
                 np.asarray(gate_bias, dtype=np.float64))[2]


def fusion_forward(
    queries: np.ndarray,
    logits: np.ndarray,
    params: FusionParams,
    levels: int,
) -> np.ndarray:
    """Pure composition: encode, attend, gate."""
    features = encode_anatomy(logits, params.anatomy_proj, levels)
    context = attention(queries, features, params)
    return gated_fusion(queries, context, params.gate_weight, params.gate_bias)


def loss_and_gradients(
    params: FusionParams,
    queries: np.ndarray,
    logits: np.ndarray,
    levels: int,
) -> tuple[float, dict[str, np.ndarray]]:
    """Scalar loss sum(output^2) with hand-derived gradients for every
    parameter block (and the queries)."""
    queries = np.asarray(queries, dtype=np.float64)
    logits = np.asarray(logits, dtype=np.float64)

    # forward, keeping intermediates
    tokens = _flatten_levels(encode_anatomy(logits, params.anatomy_proj, levels))
    q_proj, keys, values, weights, context = _attend(queries, tokens, params)
    _, gate, output = _gate(queries, context, params.gate_weight, params.gate_bias)

    loss = float((output * output).sum())

    # backward
    d_output = 2.0 * output
    d_pre_gate = (d_output * context) * gate * (1.0 - gate)
    d_gate_weight = context.T @ d_pre_gate
    d_gate_bias = d_pre_gate.sum(axis=0)
    d_context = d_output * gate + d_pre_gate @ params.gate_weight.T

    d_weights = d_context @ values.T
    d_values = weights.T @ d_context
    # softmax rows: dS = W * (dW - sum(dW * W, rows))
    row_dot = (d_weights * weights).sum(axis=1, keepdims=True)
    d_scores = weights * (d_weights - row_dot)
    scale = 1.0 / np.sqrt(params.d)
    d_q_proj = (d_scores @ keys) * scale
    d_keys = (d_scores.T @ q_proj) * scale

    d_queries = d_output + d_q_proj @ params.query_proj.T
    d_query_proj = queries.T @ d_q_proj
    d_key_proj = tokens.T @ d_keys
    d_value_proj = tokens.T @ d_values
    d_tokens = d_keys @ params.key_proj.T + d_values @ params.value_proj.T

    # the encoder is linear and pooling commutes with the projection, so the
    # tokens are pooled @ anatomy_proj with the logits pooled the same way
    pooled = _flatten_levels(encode_anatomy(logits, np.eye(logits.shape[2]), levels))
    d_anatomy_proj = pooled.T @ d_tokens

    grads = {
        "queries": d_queries,
        "gate_weight": d_gate_weight,
        "gate_bias": d_gate_bias,
        "query_proj": d_query_proj,
        "key_proj": d_key_proj,
        "value_proj": d_value_proj,
        "anatomy_proj": d_anatomy_proj,
    }
    return loss, grads


class GradCheckReport(NamedTuple):
    step: float
    tolerance: float
    block_errors: dict[str, float]
    passed: bool

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "step": self.step,
            "tolerance": self.tolerance,
            "block_errors": dict(self.block_errors),
            "passed": self.passed,
        }

    def render_text(self) -> str:
        lines = [
            f"{name}: max relative error {err:.3e}"
            for name, err in self.block_errors.items()
        ]
        lines.append(
            f"gradient check {'passed' if self.passed else 'FAILED'} "
            f"(step {self.step:g}, tolerance {self.tolerance:g})"
        )
        return "\n".join(lines)


def grad_check(
    params: FusionParams,
    queries: np.ndarray,
    logits: np.ndarray,
    levels: int,
    step: float = 1e-5,
    tolerance: float = 1e-4,
    corrupt: str | None = None,
) -> GradCheckReport:
    """Compare analytic gradients to central differences of ``fusion_forward``.

    Per block the reported error is max|analytic - numeric| scaled by the
    largest gradient magnitude in the block. ``corrupt`` flips the sign of
    one analytic block, as a negative control of the check itself.
    """
    (report,) = _grad_checks(params, queries, logits, levels, (corrupt,), step, tolerance)
    return report


def _grad_checks(
    params: FusionParams, queries: np.ndarray, logits: np.ndarray, levels: int,
    corrupts: tuple[str | None, ...], step: float = 1e-5, tolerance: float = 1e-4,
) -> list[GradCheckReport]:
    """``grad_check`` once per ``corrupts`` entry, all against one set of
    analytic and numeric gradients."""
    queries = np.asarray(queries, dtype=np.float64)
    logits = np.asarray(logits, dtype=np.float64)
    _, analytic = loss_and_gradients(params, queries, logits, levels)
    for corrupt in corrupts:
        if corrupt is not None and corrupt not in analytic:
            raise ValueError(f"unknown parameter block {corrupt!r}")

    blocks = {
        name: queries if name == "queries" else getattr(params, name)
        for name in PARAM_BLOCKS
    }

    def loss_at(name: str, values: np.ndarray) -> float:
        if name == "queries":
            out = fusion_forward(values, logits, params, levels)
        else:
            out = fusion_forward(queries, logits, params._replace(**{name: values}), levels)
        return float((out * out).sum())

    errors: list[dict[str, float]] = [{} for _ in corrupts]
    for name, base in blocks.items():
        numeric = np.zeros_like(base)
        flat_numeric = numeric.reshape(-1)
        flat_base = base.reshape(-1)
        for idx in range(flat_base.size):
            bumped = flat_base.copy()
            bumped[idx] = flat_base[idx] + step
            up = loss_at(name, bumped.reshape(base.shape))
            bumped[idx] = flat_base[idx] - step
            down = loss_at(name, bumped.reshape(base.shape))
            flat_numeric[idx] = (up - down) / (2.0 * step)
        for corrupt, block_errors in zip(corrupts, errors):
            grad = -analytic[name] if name == corrupt else analytic[name]
            diff = float(np.abs(grad - numeric).max())
            denom = max(float(np.abs(grad).max()), float(np.abs(numeric).max()), 1e-12)
            block_errors[name] = diff / denom
    return [
        GradCheckReport(step=step, tolerance=tolerance, block_errors=block_errors,
                        passed=all(err <= tolerance for err in block_errors.values()))
        for block_errors in errors
    ]


def self_check(
    seed: int, d: int, n_queries: int, height: int, width: int,
    n_tissue_classes: int, levels: int,
) -> tuple[list[tuple[str, bool]], GradCheckReport]:
    """Invariants of the fusion math on random inputs drawn from ``seed``:
    the ``(label, passed)`` checks in a fixed order, and the report of the
    uncorrupted gradient check."""
    rng = np.random.default_rng(seed)
    params = FusionParams.random(d, n_tissue_classes, rng)
    queries = rng.standard_normal((n_queries, d))
    logits = rng.standard_normal((height, width, n_tissue_classes))

    features = encode_anatomy(logits, params.anatomy_proj, levels)
    context, weights = attention(queries, features, params, return_weights=True)
    row_err = float(np.abs(weights.sum(axis=1) - 1.0).max())
    untouched = gated_fusion(
        queries, np.zeros_like(queries), params.gate_weight, params.gate_bias
    )
    half = gated_fusion(queries, context, np.zeros((d, d)), np.zeros(d))
    half_err = float(np.abs(half - (queries + 0.5 * context)).max())
    saturated = gated_fusion(queries, context, np.zeros((d, d)), np.full(d, -20.0))
    sat_err = float(np.abs(saturated - queries).max())
    perm = rng.permutation(n_queries)
    out = fusion_forward(queries, logits, params, levels)
    out_perm = fusion_forward(queries[perm], logits, params, levels)
    # the negative control reuses the clean check's numeric gradients
    report, control = _grad_checks(params, queries, logits, levels, (None, "gate_weight"))
    worst = max(report.block_errors.values())
    checks = [
        (f"softmax rows sum to 1 (max err {row_err:.2e})", row_err <= 1e-12),
        ("zero context leaves queries untouched", np.array_equal(untouched, queries)),
        (f"zero gate params give half-strength residual (max err {half_err:.2e})",
         half_err <= 1e-15),
        (f"saturated gate suppresses the residual (max delta {sat_err:.2e})",
         sat_err <= 2.1e-9 * float(np.abs(context).max())),
        ("permuting queries permutes outputs", np.array_equal(out[perm], out_perm)),
        (f"analytic gradients match finite differences (worst block {worst:.2e})",
         report.passed),
        ("corrupted gradient is flagged by the check", not control.passed),
    ]
    return checks, report
