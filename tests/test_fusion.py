from __future__ import annotations

import numpy as np
import pytest

from oracles import block_mean_pool, naive_attention, naive_gated_fusion
from tripletseg.fusion import (
    PARAM_BLOCKS,
    FusionParams,
    attention,
    encode_anatomy,
    fusion_forward,
    gated_fusion,
    grad_check,
    loss_and_gradients,
    self_check,
)

D = 8
C = 6


@pytest.fixture()
def params(rng):
    return FusionParams.random(D, C, rng)


@pytest.fixture()
def logits(rng):
    return rng.normal(size=(4, 4, C))


@pytest.fixture()
def queries(rng):
    return rng.normal(size=(4, D))


# anatomy encoding


def test_encode_matches_block_pool_oracle(rng):
    logits = rng.normal(size=(8, 8, C))
    proj = rng.normal(size=(C, D))
    pyramid = encode_anatomy(logits, proj, levels=3)
    assert [lvl.shape for lvl in pyramid] == [(8, 8, D), (4, 4, D), (2, 2, D)]
    level = logits @ proj
    np.testing.assert_allclose(pyramid[0], level, rtol=0, atol=0)
    for got in pyramid[1:]:
        level = block_mean_pool(level)
        np.testing.assert_allclose(got, level, rtol=1e-15, atol=1e-15)


def test_encode_odd_extent_crops(rng):
    logits = rng.normal(size=(5, 7, C))
    proj = rng.normal(size=(C, D))
    pyramid = encode_anatomy(logits, proj, levels=2)
    assert pyramid[1].shape == (2, 3, D)
    np.testing.assert_allclose(
        pyramid[1], block_mean_pool(pyramid[0][:4, :6]), rtol=1e-15, atol=1e-15
    )


def test_encode_constant_logits(rng):
    logits = np.full((4, 4, C), 0.25)
    proj = rng.normal(size=(C, D))
    pyramid = encode_anatomy(logits, proj, levels=2)
    expected_row = np.full(C, 0.25) @ proj
    for lvl in pyramid:
        np.testing.assert_allclose(lvl, np.broadcast_to(expected_row, lvl.shape),
                                   rtol=1e-12, atol=1e-12)


def test_encode_identity_projection(rng):
    logits = rng.normal(size=(4, 4, D))
    pyramid = encode_anatomy(logits, np.eye(D), levels=1)
    np.testing.assert_array_equal(pyramid[0], logits)


def test_encode_validation(rng):
    proj = rng.normal(size=(C, D))
    with pytest.raises(ValueError, match="too small"):
        encode_anatomy(rng.normal(size=(2, 8, C)), proj, levels=3)
    with pytest.raises(ValueError, match="levels"):
        encode_anatomy(rng.normal(size=(4, 4, C)), proj, levels=0)
    with pytest.raises(ValueError, match="logits must be"):
        encode_anatomy(rng.normal(size=(4, 4)), proj, levels=1)
    with pytest.raises(ValueError, match="does not accept"):
        encode_anatomy(rng.normal(size=(4, 4, C + 1)), proj, levels=1)
    bad = rng.normal(size=(4, 4, C))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        encode_anatomy(bad, proj, levels=1)


# attention


def test_attention_single_token_returns_its_value(params, queries, rng):
    features = [rng.normal(size=(1, 1, D))]
    context, weights = attention(queries, features, params, return_weights=True)
    np.testing.assert_array_equal(weights, np.ones((4, 1)))
    token_value = features[0].reshape(1, D) @ params.value_proj
    np.testing.assert_allclose(context, np.repeat(token_value, 4, axis=0),
                               rtol=1e-15, atol=1e-15)


def test_attention_identical_tokens(params, queries):
    token = np.linspace(-1.0, 1.0, D)
    features = [np.broadcast_to(token, (3, 3, D)).copy()]
    context = attention(queries, features, params)
    expected = token @ params.value_proj
    np.testing.assert_allclose(context, np.broadcast_to(expected, (4, D)),
                               rtol=1e-12, atol=1e-12)


def test_attention_matches_naive_oracle(params, rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        queries = rng.normal(size=(n, D))
        features = [rng.normal(size=(3, 4, D)), rng.normal(size=(1, 2, D))]
        tokens = np.concatenate([lvl.reshape(-1, D) for lvl in features])
        got = attention(queries, features, params)
        want = naive_attention(queries, tokens,
                               params.query_proj, params.key_proj,
                               params.value_proj)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_attention_weights_rows_sum_to_one(params, rng):
    queries = rng.normal(size=(5, D)) * 10.0
    features = [rng.normal(size=(4, 4, D)) * 10.0]
    _, weights = attention(queries, features, params, return_weights=True)
    np.testing.assert_allclose(weights.sum(axis=1), np.ones(5),
                               rtol=0, atol=1e-12)
    assert (weights >= 0.0).all()


def test_attention_shape_validation(params, rng):
    with pytest.raises(ValueError, match="queries must be"):
        attention(rng.normal(size=(4, D + 1)), [rng.normal(size=(2, 2, D))], params)
    with pytest.raises(ValueError, match="feature channels"):
        attention(rng.normal(size=(4, D)), [rng.normal(size=(2, 2, D + 1))], params)


# gated fusion


def test_gated_fusion_zero_context_is_identity(params, queries):
    context = np.zeros_like(queries)
    out = gated_fusion(queries, context, params.gate_weight, params.gate_bias)
    np.testing.assert_array_equal(out, queries)


def test_gated_fusion_half_gate(queries, rng):
    context = rng.normal(size=queries.shape)
    out = gated_fusion(queries, context, np.zeros((D, D)), np.zeros(D))
    np.testing.assert_array_equal(out, queries + 0.5 * context)


def test_gated_fusion_saturated_off(queries, rng):
    context = rng.normal(size=queries.shape)
    out = gated_fusion(queries, context, np.zeros((D, D)), np.full(D, -20.0))
    bound = 2.1e-9 * np.abs(context).max()
    assert np.abs(out - queries).max() <= bound


def test_gated_fusion_matches_naive_oracle(params, queries, rng):
    context = rng.normal(size=queries.shape)
    got = gated_fusion(queries, context, params.gate_weight, params.gate_bias)
    want = naive_gated_fusion(queries, context,
                              params.gate_weight, params.gate_bias)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_gate_strictly_open(params, queries, rng):
    # moderate pre-activations keep the sigmoid away from exact 0 and 1
    context = rng.normal(size=queries.shape)
    pre = context @ params.gate_weight + params.gate_bias
    gate = 1.0 / (1.0 + np.exp(-pre))
    assert (gate > 0.0).all() and (gate < 1.0).all()
    out = gated_fusion(queries, context, params.gate_weight, params.gate_bias)
    np.testing.assert_allclose(out, queries + gate * context,
                               rtol=1e-12, atol=1e-12)


def test_gated_fusion_shape_mismatch(params, queries):
    with pytest.raises(ValueError, match="differ"):
        gated_fusion(queries, np.zeros((2, D)), params.gate_weight,
                     params.gate_bias)


# full forward


def test_forward_equals_composition(params, queries, logits):
    direct = fusion_forward(queries, logits, params, levels=2)
    features = encode_anatomy(logits, params.anatomy_proj, levels=2)
    context = attention(queries, features, params)
    composed = gated_fusion(queries, context, params.gate_weight,
                            params.gate_bias)
    np.testing.assert_array_equal(direct, composed)


def test_forward_matches_composed_oracles(params, queries, logits):
    got = fusion_forward(queries, logits, params, levels=2)
    level0 = logits @ params.anatomy_proj
    levels = [level0, block_mean_pool(level0)]
    tokens = np.concatenate([lvl.reshape(-1, D) for lvl in levels])
    context = naive_attention(queries, tokens, params.query_proj,
                              params.key_proj, params.value_proj)
    want = naive_gated_fusion(queries, context, params.gate_weight,
                              params.gate_bias)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_forward_permutation_equivariant(params, queries, logits, rng):
    perm = rng.permutation(queries.shape[0])
    out = fusion_forward(queries, logits, params, levels=2)
    out_perm = fusion_forward(queries[perm], logits, params, levels=2)
    np.testing.assert_allclose(out_perm, out[perm], rtol=1e-12, atol=1e-12)


# gradients


def test_loss_and_gradients_shapes(params, queries, logits):
    loss, grads = loss_and_gradients(params, queries, logits, levels=2)
    out = fusion_forward(queries, logits, params, levels=2)
    assert loss == pytest.approx(float((out ** 2).sum()), rel=1e-12)
    assert set(grads) == set(PARAM_BLOCKS)
    assert grads["queries"].shape == queries.shape
    assert grads["gate_bias"].shape == (D,)
    assert grads["anatomy_proj"].shape == (C, D)


def test_grad_check_passes(params, queries, logits):
    report = grad_check(params, queries, logits, levels=2)
    assert report.passed
    assert set(report.block_errors) == set(PARAM_BLOCKS)
    assert all(err <= report.tolerance for err in report.block_errors.values())
    assert report.step == 1e-5
    text = report.render_text()
    assert "pass" in text


@pytest.mark.parametrize("block", PARAM_BLOCKS)
def test_grad_check_negative_control(params, queries, logits, block):
    report = grad_check(params, queries, logits, levels=2, corrupt=block)
    assert not report.passed
    assert report.block_errors[block] > report.tolerance
    clean = {b: e for b, e in report.block_errors.items() if b != block}
    assert all(err <= report.tolerance for err in clean.values())


def test_grad_check_unknown_block(params, queries, logits):
    with pytest.raises(ValueError, match="unknown parameter block"):
        grad_check(params, queries, logits, levels=2, corrupt="momentum")


# odd extents crop at every pooling level; levels=1 has no pooling at all
@pytest.mark.parametrize("height, width, levels", [
    (9, 6, 3), (7, 5, 3), (13, 6, 3), (9, 9, 4), (5, 7, 1),
])
def test_grad_check_three_levels(params, queries, rng, height, width, levels):
    logits = rng.normal(size=(height, width, C))
    report = grad_check(params, queries, logits, levels=levels)
    assert report.passed


def test_grad_check_differentiates_fusion_forward(params, queries, logits, monkeypatch):
    # the finite differences must come from the forward pass the model runs
    from tripletseg import fusion
    forward = fusion.fusion_forward
    monkeypatch.setattr(fusion, "fusion_forward", lambda *args: 1.5 * forward(*args))
    assert not grad_check(params, queries, logits, levels=2).passed


@pytest.mark.parametrize("d", [8, 24, 32])
@pytest.mark.parametrize("seed", range(4))
def test_self_check_passes_at_larger_d(d, seed):
    # weights too large for d saturate the softmax, and the key and query
    # gradients fall below the finite differences' round-off
    checks, _ = self_check(seed, d, n_queries=4, height=4, width=4,
                           n_tissue_classes=6, levels=2)
    assert all(ok for _, ok in checks), [label for label, ok in checks if not ok]


def test_grad_check_json(params, queries, logits):
    doc = grad_check(params, queries, logits, levels=2).to_json_dict()
    assert set(doc) == {"step", "tolerance", "block_errors", "passed"}
    assert doc["passed"] is True


# parameter container


def test_params_validation(rng):
    good = FusionParams.random(D, C, rng)
    assert good.d == D
    with pytest.raises(ValueError):
        FusionParams(
            query_proj=np.zeros((D, D + 1)),
            key_proj=good.key_proj,
            value_proj=good.value_proj,
            gate_weight=good.gate_weight,
            gate_bias=good.gate_bias,
            anatomy_proj=good.anatomy_proj,
        )
    with pytest.raises(ValueError):
        FusionParams(
            query_proj=good.query_proj,
            key_proj=good.key_proj,
            value_proj=good.value_proj,
            gate_weight=good.gate_weight,
            gate_bias=np.zeros((D, 1)),
            anatomy_proj=good.anatomy_proj,
        )


def test_params_are_immutable(params):
    with pytest.raises(ValueError):
        params.gate_bias[0] = 1.0


@pytest.mark.parametrize("block, value, message", [
    ("key_proj", np.full((D, D), np.nan), "key_proj contains non-finite entries"),
    ("gate_bias", np.zeros(D + 1), f"gate_bias must be ({D},), got ({D + 1},)"),
    ("anatomy_proj", np.zeros((C, D + 1)),
     f"anatomy_proj must have {D} output channels, got ({C}, {D + 1})"),
], ids=["nan", "gate-bias-length", "anatomy-channels"])
def test_params_validation_messages(params, block, value, message):
    with pytest.raises(ValueError) as info:
        params._replace(**{block: value})
    assert str(info.value) == message
