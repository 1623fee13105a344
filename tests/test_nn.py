"""Manual forward/backward passes, the loss, SGD, and checkpointing."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from splitmark.attacks import subspace_penalty
from splitmark.linalg import NumericalError, RngStream, StreamLabel, orthonormal_columns
from splitmark.nn import (
    LayerSpec,
    OptimizerConfig,
    Segment,
    SgdOptimizer,
    SplitModel,
    SplitSpec,
    accuracy,
    backward_segment,
    forward_full,
    forward_segment,
    hex_lines,
    hex_rows,
    init_segment,
    init_split_model,
    load_model,
    save_model,
    sgd_step,
    softmax_xent,
)

from helpers import draw_labels, segment_of as _segment, segments_equal


def _random_segment(rng, dims, activations=None):
    specs = []
    for i, (a, b) in enumerate(zip(dims, dims[1:])):
        act = activations[i] if activations else ("relu" if b != dims[-1] else "identity")
        specs.append(LayerSpec(a, b, act))
    return init_segment(specs, rng)


def test_identity_layer_passthrough():
    seg = _segment((LayerSpec(3, 3, "identity"), np.eye(3), np.zeros(3)))
    x = np.array([[1.0, -2.0, 0.5], [0.0, 4.0, -1.0]])
    out, _ = forward_segment(seg, x)
    assert np.array_equal(out, x)


def test_relu_kills_negative_preactivations():
    seg = _segment((LayerSpec(2, 2), np.eye(2), np.array([-10.0, -10.0])))
    out, _ = forward_segment(seg, np.array([[1.0, 2.0]]))
    assert np.array_equal(out, np.zeros((1, 2)))


def test_hand_preactivation():
    # [1,1] @ [[1,2],[3,4]] = [4,6]
    seg = _segment((LayerSpec(2, 2, "identity"), np.array([[1.0, 2.0], [3.0, 4.0]]),
                    np.zeros(2)))
    out, tape = forward_segment(seg, np.array([[1.0, 1.0]]))
    assert np.allclose(out, [[4.0, 6.0]])
    assert np.allclose(tape.pre[0], [[4.0, 6.0]])


def test_forward_rejects_wrong_width():
    seg = _segment((LayerSpec(2, 2), np.eye(2), np.zeros(2)))
    with pytest.raises(ValueError):
        forward_segment(seg, np.ones((1, 3)))


def _loss_of(seg, x, labels):
    out, _ = forward_segment(seg, x)
    loss, _ = softmax_xent(out, labels)
    return loss


def test_backward_matches_finite_differences():
    # Central differences with h=1e-5 on a random 3-layer net, batch 4.
    rng = RngStream(1, StreamLabel.MODEL_INIT)
    seg = _random_segment(rng, (5, 7, 6, 3), ["relu", "relu", "identity"])
    x = rng.normal(4 * 5).reshape(4, 5)
    labels = np.array([0, 2, 1, 0])

    out, tape = forward_segment(seg, x)
    loss, gout = softmax_xent(out, labels)
    gin, grads = backward_segment(seg, tape, gout)
    grad_layers = Segment(seg.specs(), grads).layers

    h = 1e-5
    worst = 0.0
    for layer, glayer in zip(seg.layers, grad_layers):
        for tensor, analytic in ((layer.w, glayer.w), (layer.b, glayer.b)):
            flat = tensor.ravel()
            for idx in range(0, flat.size, max(1, flat.size // 10)):
                orig = flat[idx]
                flat[idx] = orig + h
                up = _loss_of(seg, x, labels)
                flat[idx] = orig - h
                down = _loss_of(seg, x, labels)
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                ref = analytic.ravel()[idx]
                worst = max(worst, abs(fd - ref) / max(1.0, abs(ref)))
    for idx in range(x.size):
        orig = x.ravel()[idx]
        x.ravel()[idx] = orig + h
        up = _loss_of(seg, x, labels)
        x.ravel()[idx] = orig - h
        down = _loss_of(seg, x, labels)
        x.ravel()[idx] = orig
        fd = (up - down) / (2 * h)
        ref = gin.ravel()[idx]
        worst = max(worst, abs(fd - ref) / max(1.0, abs(ref)))
    assert worst < 1e-5


def test_backward_zero_upstream():
    rng = RngStream(2, StreamLabel.MODEL_INIT)
    seg = _random_segment(rng, (4, 4, 4))
    x = rng.normal(8).reshape(2, 4)
    out, tape = forward_segment(seg, x)
    gin, grads = backward_segment(seg, tape, np.zeros_like(out))
    assert np.array_equal(gin, np.zeros_like(x))
    assert grads.shape == seg.params.shape and not grads.any()


def test_backward_identity_passthrough():
    seg = _segment((LayerSpec(3, 3, "identity"), np.eye(3), np.zeros(3)))
    x = np.array([[0.5, -1.0, 2.0]])
    _, tape = forward_segment(seg, x)
    up = np.array([[1.0, 2.0, 3.0]])
    gin, _ = backward_segment(seg, tape, up)
    assert np.allclose(gin, up)


def test_softmax_uniform_logits():
    for c in (2, 5, 10):
        loss, grad = softmax_xent(np.zeros((3, c)), np.array([0, c // 2, c - 1]))
        assert np.isclose(loss, np.log(c))


def test_softmax_confident_margin():
    logits = np.array([[40.0, 0.0]])
    loss, _ = softmax_xent(logits, np.array([0]))
    assert loss < 1e-12


def test_softmax_scalar_closed_form():
    # ln(1 + e^-1) for logits [1, 0] with label 0.
    loss, _ = softmax_xent(np.array([[1.0, 0.0]]), np.array([0]))
    assert np.isclose(loss, 0.31326168751822286, atol=1e-12)


def test_sgd_plain_step():
    seg = _segment((LayerSpec(1, 1, "identity"), np.array([[1.0]]), np.zeros(1)))
    opt = SgdOptimizer(lr=1.0)
    opt.step([seg], [np.array([0.5, 0.0])])
    assert np.isclose(seg.layers[0].w[0, 0], 0.5)


def test_sgd_momentum_recurrence():
    # Two identical unit gradients at m=0.9: v1=1, v2=1.9, total drop lr*2.9.
    seg = _segment((LayerSpec(1, 1, "identity"), np.array([[5.0]]), np.zeros(1)))
    opt = SgdOptimizer(lr=0.1, momentum=0.9)
    g = [np.array([1.0, 0.0])]
    opt.step([seg], g)
    opt.step([seg], g)
    assert np.isclose(seg.layers[0].w[0, 0], 5.0 - 0.1 * (1.0 + 1.9), atol=1e-12)


def test_sgd_zero_gradient_no_decay():
    seg = _segment((LayerSpec(1, 1, "identity"), np.array([[2.0]]), np.ones(1)))
    opt = SgdOptimizer(lr=0.5)
    opt.step([seg], [np.zeros(2)])
    assert seg.layers[0].w[0, 0] == 2.0
    assert seg.layers[0].b[0] == 1.0


def test_sgd_rejects_nonfinite_gradient():
    seg = _segment((LayerSpec(1, 1, "identity"), np.array([[1.0]]), np.zeros(1)))
    opt = SgdOptimizer(lr=0.1)
    with pytest.raises(NumericalError):
        opt.step([seg], [np.array([np.nan, 0.0])])


def test_init_is_deterministic_and_scaled():
    spec = [LayerSpec(64, 64), LayerSpec(64, 32, "identity")]
    a = init_segment(spec, RngStream(4, StreamLabel.MODEL_INIT))
    b = init_segment(spec, RngStream(4, StreamLabel.MODEL_INIT))
    assert segments_equal(a, b)
    # std approximately 1/sqrt(fan_in), biases exactly zero
    assert abs(a.layers[0].w.std() - 1 / 8) < 0.02
    assert not a.layers[0].b.any()


def test_split_model_roundtrip(tmp_path):
    spec = SplitSpec(
        bottom=(LayerSpec(8, 16), LayerSpec(16, 16)),
        middle=(LayerSpec(16, 16),),
        head=(LayerSpec(16, 3, "identity"),),
    )
    model = init_split_model(spec, RngStream(9, StreamLabel.MODEL_INIT))
    path = tmp_path / "model.ckpt"
    save_model(model, str(path))
    clone = load_model(str(path))
    for seg, other in zip(
        (model.bottom, model.middle, model.head), (clone.bottom, clone.middle, clone.head)
    ):
        assert segments_equal(seg, other)
    # byte-stable: saving the clone reproduces the file exactly
    path2 = tmp_path / "model2.ckpt"
    save_model(clone, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_load_model_rejects_cut_and_malformed_files(tmp_path):
    spec = SplitSpec(
        bottom=(LayerSpec(3, 4),),
        middle=(LayerSpec(4, 4),),
        head=(LayerSpec(4, 2, "identity"),),
    )
    path = tmp_path / "model.ckpt"
    save_model(init_split_model(spec, RngStream(9, StreamLabel.MODEL_INIT)), str(path))
    lines = path.read_text().splitlines(keepends=True)
    bad = tmp_path / "bad.ckpt"
    # a file cut after any line: the header, a layer spec or a body row
    for n in range(len(lines)):
        bad.write_text("".join(lines[:n]))
        with pytest.raises(ValueError, match="checkpoint" if n == 0 else f"line {n + 1}"):
            load_model(str(bad))
    header = 7  # magic, then one segment line and one layer line per segment
    w_row = lines[header]
    cases = {
        header: w_row.rsplit(" ", 1)[0] + "\n",  # a w row one value short
        header + 1: w_row.rstrip("\n") + " 0x0p+0\n",  # a w row one value long
        header + 2: "b" + w_row[1:],  # a b where the last w row belongs
        1: "segment middle 1\n",  # segments out of order
        2: "layer 3 4\n",  # a layer spec without activation
    }
    for i, text in cases.items():
        bad.write_text("".join(lines[:i] + [text] + lines[i + 1 :]))
        with pytest.raises(ValueError, match=f"line {i + 1}"):
            load_model(str(bad))
    # a non-finite value anywhere in the body, and a line after the last segment
    rest = w_row.split(" ", 2)[2]  # the first w row without its first value
    for value in ("inf", "-inf", "nan"):
        bad.write_text("".join(lines[:header] + [f"w {value} {rest}"] + lines[header + 1 :]))
        with pytest.raises(ValueError, match=f"non-finite value at line {header + 1}"):
            load_model(str(bad))
    bad.write_text("".join(lines) + "b 0x0p+0\n")
    with pytest.raises(ValueError, match=f"line {len(lines) + 1} after the last segment"):
        load_model(str(bad))


# The width-256 shape of the wide-noise workload: 134 916 parameters.
_WIDE = SplitSpec(
    bottom=(LayerSpec(8, 256),),
    middle=(LayerSpec(256, 256), LayerSpec(256, 256)),
    head=(LayerSpec(256, 4, "identity"),),
)


def test_wide_checkpoint_bytes_are_pinned(tmp_path):
    # Recorded from the per-value float.hex writer this format began with.
    path = tmp_path / "model.ckpt"
    save_model(init_split_model(_WIDE, RngStream(0, StreamLabel.MODEL_INIT)), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "72e89eaa271e69f2fb12444d1fa0176a2caedab5e6be43f33d684c2bb78c56fe"
    )


def test_hex_rows_reads_back_what_hex_lines_writes():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 2**64, size=(40, 30), dtype=np.uint64).view(np.float64)
    rows[~np.isfinite(rows)] = 0.0
    rows[0, :3] = (0.0, -0.0, 5e-324)
    lines = ["header"] + hex_lines("w", rows).decode().splitlines()
    back = hex_rows(lines, 1, "w", 40, 30)
    assert back.tobytes() == rows.tobytes()  # bit for bit, -0.0 included
    for args, message in (
        ((41, 30, "w"), "ends early, before line 42"),
        ((40, 30, "b"), "expected a b row of 30 values at line 2"),
        ((40, 31, "w"), "expected a w row of 31 values at line 2"),
    ):
        n_rows, n_cols, tag = args
        with pytest.raises(ValueError, match=message):
            hex_rows(lines, 1, tag, n_rows, n_cols)
    lines[7] = "w inf " + lines[7].split(" ", 2)[2]
    with pytest.raises(ValueError, match="non-finite value at line 8"):
        hex_rows(lines, 1, "w", 40, 30)


def test_hex_lines_is_float_hex_on_every_kind_of_bit_pattern():
    edges = [
        0x0000000000000000,  # +0
        0x8000000000000000,  # -0
        0x0000000000000001,  # smallest subnormal
        0x800FFFFFFFFFFFFF,  # largest subnormal, negative
        0x0010000000000000,  # smallest normal
        0x7FEFFFFFFFFFFFFF,  # largest normal
        0xFFEFFFFFFFFFFFFF,
        0x3FF0000000000000,  # 1.0
        0x7FF0000000000000,  # inf
        0xFFF0000000000000,  # -inf
        0x7FF8000000000000,  # nan
        0xFFF0000000000001,  # nan with the sign bit and a low payload
    ]
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2**64, size=(60, 300), dtype=np.uint64)
    # Biased exponents 0-2 and 2045-2047 in two rows each, the random sign
    # and mantissa kept: subnormals, zeros and the specials in bulk.
    low, high = rng.integers(0, 3, (2, 300)), rng.integers(2045, 2048, (2, 300))
    fields = np.vstack([low, high]).astype(np.uint64) << np.uint64(52)
    bits[:4] = (bits[:4] & np.uint64(0x800FFFFFFFFFFFFF)) | fields
    bits[4, : len(edges)] = edges
    values = bits.view(np.float64)
    expected = "".join("m " + " ".join(float(v).hex() for v in row) + "\n" for row in values)
    assert hex_lines("m", values) == expected.encode("ascii")
    assert hex_lines("b", values[4, :1][None]) == b"b 0x0.0p+0\n"


def test_save_model_streams_instead_of_holding_the_whole_text(tmp_path):
    # Joining the whole wide checkpoint as one string peaked at 8.7 MB;
    # streaming it in row blocks peaks at 0.8 MB.
    model = init_split_model(_WIDE, RngStream(0, StreamLabel.MODEL_INIT))
    tracemalloc.start()
    try:
        save_model(model, str(tmp_path / "model.ckpt"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_split_spec_dimension_chain():
    with pytest.raises(ValueError):
        SplitSpec(
            bottom=(LayerSpec(8, 16),),
            middle=(LayerSpec(32, 16),),
            head=(LayerSpec(16, 3, "identity"),),
        )


def test_forward_full_composes_segments():
    spec = SplitSpec(
        bottom=(LayerSpec(4, 8),),
        middle=(LayerSpec(8, 8),),
        head=(LayerSpec(8, 2, "identity"),),
    )
    model = init_split_model(spec, RngStream(1, StreamLabel.MODEL_INIT))
    x = RngStream(2, StreamLabel.DATA).normal(12).reshape(3, 4)
    a, _ = forward_segment(model.bottom, x)
    m, _ = forward_segment(model.middle, a)
    logits, _ = forward_segment(model.head, m)
    assert np.array_equal(forward_full(model, x), logits)


def test_accuracy():
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 1, 1, 1])
    assert accuracy(logits, labels) == 0.75


def test_optimizer_config_builds():
    opt = OptimizerConfig(lr=0.01, momentum=0.5).build()
    assert isinstance(opt, SgdOptimizer)
    assert opt.lr == 0.01 and opt.momentum == 0.5


# ------------------------------------------------------ flat parameter buffer


def test_layer_views_and_flat_params_stay_in_sync():
    seg = _random_segment(RngStream(3, StreamLabel.MODEL_INIT), [3, 4, 2])
    first, second = seg.layers
    assert seg.params.shape == (3 * 4 + 4 + 4 * 2 + 2,)
    # layout: w row major then b, layer by layer
    assert np.array_equal(
        seg.params,
        np.concatenate([first.w.ravel(), first.b, second.w.ravel(), second.b]),
    )
    first.w[1, 2] = 7.0
    assert seg.params[1 * 4 + 2] == 7.0
    second.b[...] = np.array([5.0, 6.0])
    assert np.array_equal(seg.params[-2:], [5.0, 6.0])
    seg.params[12] = -3.0  # first layer's bias, entry 0
    assert first.b[0] == -3.0
    with pytest.raises(ValueError):
        second.b[...] = np.zeros(3)
    # a layer cannot be pointed away from the buffer
    with pytest.raises(AttributeError):
        second.b = np.array([1.0, 2.0])
    assert np.array_equal(seg.params[-2:], [5.0, 6.0])


def test_segment_wraps_the_buffer_it_is_given():
    params = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    seg = Segment([LayerSpec(2, 2, "identity")], params)
    assert seg.params is params
    params[1] = 4.0
    assert seg.layers[0].w[0, 1] == 4.0
    seg.layers[0].b[1] = -1.0
    assert params[5] == -1.0


@pytest.mark.parametrize(
    "specs, params, match",
    [
        ([], np.zeros(0), "at least one layer"),
        ([LayerSpec(2, 3), LayerSpec(2, 1)], np.zeros(12), "chain breaks"),
        ([LayerSpec(2, 2)], np.zeros(5), r"shape \(6,\)"),
        ([LayerSpec(2, 2)], np.zeros(6, dtype=np.float32), "float64"),
        ([LayerSpec(2, 2)], np.zeros((2, 3)), r"shape \(6,\)"),
    ],
    ids=["empty", "chain", "size", "dtype", "ndim"],
)
def test_segment_rejects_bad_specs_and_buffers(specs, params, match):
    with pytest.raises(ValueError, match=match):
        Segment(specs, params)


def test_segment_copy_shares_no_memory():
    seg = _random_segment(RngStream(4, StreamLabel.MODEL_INIT), [3, 5, 2])
    clone = seg.copy()
    assert segments_equal(seg, clone)
    assert not np.shares_memory(seg.params, clone.params)
    for a, b in zip(seg.layers, clone.layers):
        assert not np.shares_memory(a.w, b.w) and not np.shares_memory(a.b, b.b)
    clone.layers[0].w[0, 0] += 1.0
    clone.params[-1] += 1.0
    assert not np.array_equal(seg.params, clone.params)
    assert seg.layers[0].w[0, 0] != clone.layers[0].w[0, 0]


def test_backward_grads_are_views_of_one_flat_buffer():
    rng = RngStream(5, StreamLabel.MODEL_INIT)
    seg = _random_segment(rng, [3, 4, 2])
    x = rng.normal(15).reshape(5, 3)
    out, tape = forward_segment(seg, x)
    _, grads = backward_segment(seg, tape, np.ones_like(out))
    assert grads.dtype == np.float64 and grads.shape == seg.params.shape
    view = Segment(seg.specs(), grads)
    assert view.params is grads
    assert np.array_equal(
        grads, np.concatenate([np.ravel(t) for l in view.layers for t in (l.w, l.b)])
    )
    # the same products as the plain per-layer formulas
    a0 = tape.inputs[1]
    assert np.array_equal(view.layers[1].w, a0.T @ np.ones_like(out))
    assert np.array_equal(view.layers[1].b, np.ones_like(out).sum(axis=0))


def test_backward_without_input_grad_keeps_parameter_grads_bitwise():
    rng = RngStream(6, StreamLabel.MODEL_INIT)
    seg = _random_segment(rng, [5, 7, 6, 3], ["relu", "relu", "identity"])
    x = rng.normal(4 * 5).reshape(4, 5)
    out, tape = forward_segment(seg, x)
    up = rng.normal(out.size).reshape(out.shape)
    gin, full = backward_segment(seg, tape, up)
    skipped_gin, skipped = backward_segment(seg, tape, up, need_input_grad=False)
    assert gin.shape == x.shape
    assert skipped_gin is None
    assert np.array_equal(skipped, full)


def _reference_sgd(params, grad_steps, lr, momentum):
    """Per-tensor SGD as written before the flat buffer: one velocity per
    tensor, the same three operations on each."""
    params = [p.copy() for p in params]
    velocity = [np.zeros_like(p) for p in params]
    for grads in grad_steps:
        for p, v, g in zip(params, velocity, grads):
            v *= momentum
            v += g
            p -= lr * v
    return params


def test_flat_sgd_is_bitwise_the_per_tensor_update():
    rng = RngStream(6, StreamLabel.MODEL_INIT)
    bottom = _random_segment(rng, [4, 6, 5])
    head = _random_segment(rng, [5, 3])
    before = [t.copy() for s in (bottom, head) for l in s.layers for t in (l.w, l.b)]
    steps = []
    for _ in range(4):
        steps.append(
            [
                [(rng.normal(l.w.size).reshape(l.w.shape), rng.normal(l.b.size)) for l in s.layers]
                for s in (bottom, head)
            ]
        )
    opt = SgdOptimizer(lr=0.07, momentum=0.9)
    for step_grads in steps:
        # the same values, laid out like each segment's params
        flat = [np.concatenate([np.ravel(t) for pair in g for t in pair]) for g in step_grads]
        opt.step([bottom, head], flat)
    expected = _reference_sgd(
        before,
        [[t for seg_grads in s for pair in seg_grads for t in pair] for s in steps],
        0.07,
        0.9,
    )
    got = [t for s in (bottom, head) for l in s.layers for t in (l.w, l.b)]
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_sgd_nan_in_last_bias_of_second_segment_raises_and_updates_nothing():
    rng = RngStream(8, StreamLabel.MODEL_INIT)
    first = _random_segment(rng, [3, 4])
    second = _random_segment(rng, [4, 4, 2])
    snapshot = (first.params.copy(), second.params.copy())
    grads_first = np.ones(first.params.size)
    grads_second = np.ones(second.params.size)
    grads_second[-1] = np.nan
    opt = SgdOptimizer(lr=0.1)
    with pytest.raises(NumericalError):
        opt.step([first, second], [grads_first, grads_second])
    assert np.array_equal(first.params, snapshot[0])
    assert np.array_equal(second.params, snapshot[1])
    # also when the gradient comes from backward_segment
    out, tape = forward_segment(second, rng.normal(8).reshape(2, 4))
    _, flat_grads = backward_segment(second, tape, np.ones_like(out))
    flat_grads[-1] = np.inf
    with pytest.raises(NumericalError):
        opt.step([second], [flat_grads])
    assert np.array_equal(second.params, snapshot[1])


# ------------------------------------------------------------- replica axis


@pytest.mark.parametrize("g", [1, 3])
@pytest.mark.parametrize("batch", [4, 5])
def test_stacked_replicas_are_bitwise_separate_calls(g, batch):
    # A (G, P) segment runs forward, backward, loss, accuracy and SGD as G
    # separate (P,) calls would, bit for bit; batch 5 is a ragged last batch.
    rng = RngStream(9, StreamLabel.MODEL_INIT)
    specs = [LayerSpec(4, 6), LayerSpec(6, 5, "relu"), LayerSpec(5, 3, "identity")]
    singles = [init_segment(specs, rng.child(i)) for i in range(g)]
    stacked = Segment(specs, np.stack([s.params for s in singles]))
    x = rng.normal(g * batch * 4).reshape(g, batch, 4)
    labels = (rng.uniform(g * batch) * 3).astype(np.int64).reshape(g, batch)
    opt_stacked, opt_single = SgdOptimizer(0.1, 0.9), [SgdOptimizer(0.1, 0.9) for _ in range(g)]
    for _ in range(2):  # the second step runs on non-zero momentum
        out, tape = forward_segment(stacked, x)
        loss, g_logits = softmax_xent(out, labels)
        acc = accuracy(out, labels)
        g_in, grad = backward_segment(stacked, tape, g_logits)
        assert loss.shape == acc.shape == (g,) and grad.shape == stacked.params.shape
        for i, seg in enumerate(singles):
            out_i, tape_i = forward_segment(seg, x[i])
            loss_i, g_logits_i = softmax_xent(out_i, labels[i])
            g_in_i, grad_i = backward_segment(seg, tape_i, g_logits_i)
            assert np.array_equal(out[i], out_i)
            assert loss[i] == loss_i and acc[i] == accuracy(out_i, labels[i])
            assert np.array_equal(g_logits[i], g_logits_i)
            assert np.array_equal(g_in[i], g_in_i) and np.array_equal(grad[i], grad_i)
            opt_single[i].step([seg], [grad_i])
        opt_stacked.step([stacked], [grad])
        for i, seg in enumerate(singles):
            assert np.array_equal(stacked.params[i], seg.params)


def test_stacked_layer_views_write_through_to_each_replica():
    seg = _random_segment(RngStream(3, StreamLabel.MODEL_INIT), [3, 4, 2]).replicate(2)
    assert seg.params.shape == (2, 3 * 4 + 4 + 4 * 2 + 2)
    first, second = seg.layers
    assert first.w.shape == (2, 3, 4) and second.b.shape == (2, 2)
    first.w[1, 2, 3] = 7.0
    second.b[0] = [5.0, 6.0]
    assert seg.params[1, 2 * 4 + 3] == 7.0
    assert np.array_equal(seg.params[0, -2:], [5.0, 6.0])
    replica = seg.replica(1)
    assert replica.params.shape == (seg.params.shape[1],)
    assert np.shares_memory(replica.params, seg.params)
    assert replica.layers[0].w[2, 3] == 7.0
    with pytest.raises(ValueError, match="shape"):
        Segment(seg.specs(), np.zeros((1, 2) + seg.params.shape[1:]))


def test_sgd_non_finite_gradient_in_one_replica_updates_no_replica():
    rng = RngStream(8, StreamLabel.MODEL_INIT)
    seg = _random_segment(rng, [3, 4, 2]).replicate(3)
    snapshot = seg.params.copy()
    out, tape = forward_segment(seg, rng.normal(3 * 2 * 3).reshape(3, 2, 3))
    _, grads = backward_segment(seg, tape, np.ones_like(out))
    grads[2, 5] = np.nan
    opt = SgdOptimizer(lr=0.1, momentum=0.9)
    with pytest.raises(NumericalError):
        opt.step([seg], [grads])
    assert np.array_equal(seg.params, snapshot)


def _chain_and_batch(seed, dims_per_segment):
    """Segments whose last layer is relu except the final head's identity,
    plus a batch of inputs and labels for them."""
    rng = RngStream(seed, StreamLabel.MODEL_INIT)
    segments = []
    for k, dims in enumerate(dims_per_segment):
        acts = ["relu"] * (len(dims) - 1)
        if k == len(dims_per_segment) - 1:
            acts[-1] = "identity"
        segments.append(_random_segment(rng, dims, acts))
    n_in, n_classes = dims_per_segment[0][0], dims_per_segment[-1][-1]
    x = rng.normal(7 * n_in).reshape(7, n_in)
    return segments, x, draw_labels(rng, n_classes, 7)


def test_sgd_step_is_bitwise_the_hand_wired_three_segment_step():
    segments, x, y = _chain_and_batch(31, [(4, 6, 5), (5, 5), (5, 3)])
    ref = [seg.copy() for seg in segments]
    opt, ref_opt = SgdOptimizer(0.05, 0.9), SgdOptimizer(0.05, 0.9)
    for _ in range(3):  # later steps run on momentum the earlier ones left
        rows = sgd_step(opt, segments, x, y)
        a, tape_b = forward_segment(ref[0], x)
        s, tape_m = forward_segment(ref[1], a)
        logits, tape_h = forward_segment(ref[2], s)
        _, g_logits = softmax_xent(logits, y)
        g_s, head_grads = backward_segment(ref[2], tape_h, g_logits)
        g_a, middle_grads = backward_segment(ref[1], tape_m, g_s)
        _, bottom_grads = backward_segment(ref[0], tape_b, g_a, need_input_grad=False)
        ref_opt.step(ref, [bottom_grads, middle_grads, head_grads])
        assert np.array_equal(rows, g_a)
        assert all(segments_equal(got, want) for got, want in zip(segments, ref))


def test_sgd_step_adds_the_penalty_gradient_at_the_first_output_bitwise():
    (bottom, head), x, y = _chain_and_batch(32, [(4, 6, 5), (5, 3)])
    basis = orthonormal_columns(RngStream(33, StreamLabel.ATTACK).normal(10).reshape(5, 2))
    weights = np.array([1.0, 0.25])

    def penalty(a):
        return subspace_penalty(a, basis, weights)

    ref = [bottom.copy(), head.copy()]
    opt, ref_opt = SgdOptimizer(0.05, 0.9), SgdOptimizer(0.05, 0.9)
    for _ in range(3):
        rows = sgd_step(opt, [bottom, head], x, y, penalty)
        a, tape_b = forward_segment(ref[0], x)
        logits, tape_h = forward_segment(ref[1], a)
        _, g_logits = softmax_xent(logits, y)
        g_split, head_grads = backward_segment(ref[1], tape_h, g_logits)
        _, g_pen = penalty(a)
        g_split = g_split + g_pen
        _, bottom_grads = backward_segment(ref[0], tape_b, g_split, need_input_grad=False)
        ref_opt.step(ref, [bottom_grads, head_grads])
        assert np.any(g_pen != 0.0)
        assert np.array_equal(rows, g_split)
        assert segments_equal(bottom, ref[0]) and segments_equal(head, ref[1])
