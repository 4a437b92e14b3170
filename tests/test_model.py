"""Tests for the part-attentive hashing network's forward operations."""

import numpy as np
import pytest

import finehash.autodiff as ad
from finehash import model
from finehash.errors import ContractError, DimensionError

import helpers


def small_config(**overrides):
    base = dict(
        parts=2,
        bits=3,
        image_side=8,
        in_channels=3,
        backbone_channels=(4,),
        backbone_pools=(2,),
        refined_channels=4,
    )
    base.update(overrides)
    return model.ModelConfig(**base)


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class TestModelConfig:
    def test_default_shape_chain(self):
        config = model.ModelConfig()
        assert config.feature_side == 8
        assert config.feature_channels == 32
        assert config.descriptor_dim == (config.parts + 1) * config.refined_channels

    def test_invalid_parts(self):
        with pytest.raises(ContractError):
            model.ModelConfig(parts=0)

    def test_invalid_bits(self):
        with pytest.raises(ContractError):
            model.ModelConfig(bits=0)

    def test_indivisible_pool_chain(self):
        with pytest.raises(ContractError):
            model.ModelConfig(image_side=30, backbone_pools=(4, 2, 1))

    def test_pool_block_count_mismatch(self):
        with pytest.raises(ContractError):
            model.ModelConfig(backbone_pools=(2, 2))


class TestBackbone:
    def test_default_output_shape(self, rng):
        config = model.ModelConfig()
        params = model.ModelParams.initialize(config, rng)
        out = model.backbone_forward(params, rng.uniform(size=(32, 32, 3)))
        assert out.shape == (8, 8, 32)

    def test_output_nonnegative_after_relu(self, rng):
        config = small_config()
        params = model.ModelParams.initialize(config, rng)
        out = model.backbone_forward(params, rng.uniform(size=(8, 8, 3)))
        assert np.all(out.data >= 0.0)

    def test_wrong_image_shape_rejected(self, rng):
        params = model.ModelParams.initialize(small_config(), rng)
        with pytest.raises(DimensionError):
            model.backbone_forward(params, np.zeros((9, 8, 3)))

    def test_deterministic(self, rng):
        config = small_config()
        params = model.ModelParams.initialize(config, rng)
        image = rng.uniform(size=(8, 8, 3))
        a = model.backbone_forward(params, image).data
        b = model.backbone_forward(params, image).data
        assert np.array_equal(a, b)


class TestAttention:
    def test_maps_shape_and_range(self, rng):
        config = small_config()
        params = model.ModelParams.initialize(config, rng)
        base = model.backbone_forward(params, rng.uniform(size=(8, 8, 3)))
        maps = model.attention_maps(params, base)
        assert maps.shape == (config.parts, config.feature_side, config.feature_side)
        assert np.all(maps.data > 0.0) and np.all(maps.data < 1.0)

    def test_zero_head_gives_exactly_half(self, rng):
        config = small_config()
        params = model.ModelParams.initialize(config, rng)
        params.attention_kernel.data[:] = 0.0
        params.attention_bias.data[:] = 0.0
        base = model.backbone_forward(params, rng.uniform(size=(8, 8, 3)))
        assert np.all(model.attention_maps(params, base).data == 0.5)

    def test_wrong_feature_shape_rejected(self, rng):
        params = model.ModelParams.initialize(small_config(), rng)
        with pytest.raises(DimensionError):
            model.attention_maps(params, ad.tensor(np.zeros((3, 3, 4))))


class TestAttend:
    """Gating the base features by attention maps, which ``ad.gated_conv2d``
    does inside the local refinement conv."""

    @staticmethod
    def _gated(params, base, maps):
        return ad.gated_conv2d(base, ad.tensor(maps), params.local_kernel, params.local_bias).data

    def test_ones_map_is_identity(self, rng):
        params = model.ModelParams.initialize(small_config(), rng)
        params.local_bias.data[:] = rng.standard_normal(4)
        base = ad.tensor(rng.uniform(size=(4, 4, 4)))
        plain = ad.conv2d(base, params.local_kernel, params.local_bias).data
        out = self._gated(params, base, np.ones((1, 4, 4)))
        assert out.shape == (1, 4, 4, 4)
        assert np.allclose(out[0], plain, rtol=1e-12, atol=1e-12)

    def test_zero_map_zeroes_everything(self, rng):
        params = model.ModelParams.initialize(small_config(), rng)
        params.local_bias.data[:] = rng.standard_normal(4)
        base = ad.tensor(rng.uniform(size=(4, 4, 4)))
        out = self._gated(params, base, np.zeros((2, 4, 4)))
        assert np.array_equal(out, np.broadcast_to(params.local_bias.data, (2, 4, 4, 4)))

    def test_one_hot_map_keeps_single_fiber(self, rng):
        params = model.ModelParams.initialize(small_config(), rng)
        params.local_kernel.data[:] = 0.0
        for c in range(4):
            params.local_kernel.data[1, 1, c, c] = 1.0
        params.local_bias.data[:] = 0.0
        base = ad.tensor(rng.uniform(size=(4, 4, 4)))
        plane = np.zeros((1, 4, 4))
        plane[0, 1, 2] = 1.0
        out = self._gated(params, base, plane)[0]
        assert np.array_equal(out[1, 2], base.data[1, 2])
        out[1, 2] = 0.0
        assert np.array_equal(out, np.zeros((4, 4, 4)))

    def test_rank_checks(self, rng):
        params = model.ModelParams.initialize(small_config(), rng)
        with pytest.raises(DimensionError):
            self._gated(params, ad.tensor(np.zeros((4, 4))), np.zeros((4, 4)))
        with pytest.raises(DimensionError):
            self._gated(params, ad.tensor(np.zeros((4, 4, 4))), np.zeros((4, 4)))


class TestRefinement:
    def test_part_vector_is_spatial_mean_of_map(self, rng):
        config = small_config()
        params = model.ModelParams.initialize(config, rng)
        base = ad.tensor(rng.uniform(size=(4, 4, 4)))
        maps = ad.tensor(rng.uniform(size=(config.parts, 4, 4)))
        refined_map, refined_vec = model.local_refine(params, base, maps)
        side = config.feature_side // model.REFINE_POOL
        assert refined_map.shape == (config.parts, side, side, 4)
        assert np.allclose(refined_vec.data, refined_map.data.mean(axis=(1, 2)), atol=1e-15)

    def test_identity_kernel_pools_the_input(self, rng):
        # A center-tap identity kernel with zero bias reduces the refinement
        # stage to gating + relu + mean-pool; on nonnegative input under a
        # ones map that is just the 2x mean-pool of the base map.
        config = small_config()
        params = model.ModelParams.initialize(config, rng)
        params.local_kernel.data[:] = 0.0
        for c in range(4):
            params.local_kernel.data[1, 1, c, c] = 1.0
        params.local_bias.data[:] = 0.0
        base = np.abs(rng.uniform(size=(4, 4, 4)))
        refined_map, _ = model.local_refine(params, ad.tensor(base), ad.tensor(np.ones((1, 4, 4))))
        expected = base.reshape(2, 2, 2, 2, 4).mean(axis=(1, 3))
        assert np.allclose(refined_map.data[0], expected, atol=1e-12)

    def test_changing_one_attention_map_changes_only_that_part(self, rng):
        config = small_config()
        params = model.ModelParams.initialize(config, rng)
        image = rng.uniform(size=(8, 8, 3))
        base = model.backbone_forward(params, image)
        maps = model.attention_maps(params, base).data

        def refine_all(attention_maps):
            return model.local_refine(params, base, ad.tensor(attention_maps))[1].data

        before = refine_all(maps)
        bumped = maps.copy()
        bumped[1] *= 0.5
        after = refine_all(bumped)
        assert np.array_equal(before[0], after[0])
        assert not np.array_equal(before[1], after[1])

    def test_global_refine_zero_branch(self, rng):
        config = small_config()
        params = model.ModelParams.initialize(config, rng)
        params.global_kernel.data[:] = 0.0
        params.global_bias.data[:] = 0.0
        base = model.backbone_forward(params, rng.uniform(size=(8, 8, 3)))
        vec = model.global_refine(params, base)
        assert np.array_equal(vec.data, np.zeros(config.refined_channels))


class TestHashLayer:
    def _features(self, params, rng):
        return model.forward_features(params, rng.uniform(size=(8, 8, 3)))

    def _descriptor(self, params, rng):
        feats = self._features(params, rng)
        return model.descriptor(feats.part_vecs, feats.global_vec)

    def test_relaxed_range_and_discrete_signs(self, rng):
        config = small_config()
        params = model.ModelParams.initialize(config, rng)
        desc = self._descriptor(params, rng)
        relaxed = model.hash_layer(params, desc)
        assert relaxed.shape == (config.bits,)
        assert np.all(np.abs(relaxed.data) < 1.0)
        assert set(np.unique(ad.sign_pm1(relaxed.data))) <= {-1.0, 1.0}

    def test_sign_consistency_between_modes(self, rng):
        config = small_config()
        params = model.ModelParams.initialize(config, rng)
        feats = model.forward_features(params, rng.uniform(size=(6, 8, 8, 3)))
        desc = model.descriptor(feats.part_vecs, feats.global_vec)
        relaxed = model.hash_layer(params, desc)
        # the discrete code is the sign of the scores W d - b, before tanh
        scores = (np.matmul(params.hash_weight.data, desc.data[..., None])[..., 0]
                  - params.hash_bias.data)
        assert np.array_equal(ad.sign_pm1(relaxed.data), ad.sign_pm1(scores))

    def test_zero_weight_row_convention(self, rng):
        config = small_config()
        params = model.ModelParams.initialize(config, rng)
        params.hash_weight.data[0, :] = 0.0
        desc = self._descriptor(params, rng)
        relaxed = model.hash_layer(params, desc)
        assert relaxed.data[0] == 0.0
        assert ad.sign_pm1(relaxed.data)[0] == 1.0

    def test_part_count_mismatch_rejected(self, rng):
        params = model.ModelParams.initialize(small_config(), rng)
        feats = self._features(params, rng)
        with pytest.raises(DimensionError):
            model.hash_layer(params, model.descriptor(ad.tensor(feats.part_vecs.data[:1]),
                                                      feats.global_vec))

    def test_vector_length_mismatch_rejected(self, rng):
        params = model.ModelParams.initialize(small_config(), rng)
        feats = self._features(params, rng)
        with pytest.raises(DimensionError):
            model.hash_layer(params, model.descriptor(feats.part_vecs, ad.tensor(np.zeros(5))))


class TestEndToEnd:
    def test_descriptor_concatenation(self, rng):
        config = small_config()
        params = model.ModelParams.initialize(config, rng)
        feats = model.forward_features(params, rng.uniform(size=(8, 8, 3)))
        desc = model.descriptor(feats.part_vecs, feats.global_vec).data
        assert desc.shape == (config.descriptor_dim,)
        assert np.array_equal(desc[: config.refined_channels], feats.part_vecs.data[0])
        assert np.array_equal(desc[-config.refined_channels :], feats.global_vec.data)

    def test_same_seed_same_codes(self):
        config = small_config()
        image = np.random.default_rng(5).uniform(size=(8, 8, 3))
        codes = []
        for _ in range(2):
            params = model.ModelParams.initialize(config, np.random.default_rng(77))
            feats = model.forward_features(params, image)
            desc = model.descriptor(feats.part_vecs, feats.global_vec)
            codes.append(ad.sign_pm1(model.hash_layer(params, desc).data))
        assert np.array_equal(codes[0], codes[1])

    def test_descriptors_within_float32_rounding_of_gated_stack_conv(self, rng):
        # gated_conv2d sums the taps in another order than conv2d of the gated
        # stack it replaces; in float32 that moves a descriptor by about 1e-7
        config = model.ModelConfig(bits=16)
        params = model.ModelParams.initialize(config, rng)
        images = rng.uniform(size=(8, config.image_side, config.image_side, config.in_channels))
        feats = model.forward_features(params, images)
        base = model.backbone_forward(params, images)
        maps = model.attention_maps(params, base)
        stack = ad.hadamard(ad.reshape(maps, (*maps.shape, 1)),
                            ad.reshape(base, (8, 1, *base.shape[1:])))
        refined = ad.avg_pool2(
            ad.relu(ad.conv2d(stack, params.local_kernel, params.local_bias)), model.REFINE_POOL)
        got = model.descriptor(feats.part_vecs, feats.global_vec).data
        want = model.descriptor(ad.global_avg_pool(refined), feats.global_vec).data
        assert got.dtype == np.float32
        assert np.all(np.abs(got - want).max(axis=1) <= 1e-6 * np.abs(want).max(axis=1))

    def test_one_image_forward_records_26_ops(self, rng):
        # every op call pays a tape lookup, and every computing op a
        # finiteness check; a change to the op count per forward shows here
        config = model.ModelConfig(bits=16)
        params = model.ModelParams.initialize(config, rng)
        image = rng.uniform(size=(config.image_side, config.image_side, config.in_channels))
        with ad.Tape() as tape:
            feats = model.forward_features(params, image)
            model.hash_layer(params, model.descriptor(feats.part_vecs, feats.global_vec))
        assert len(tape) == 26

    def test_gradients_reach_every_stage(self, rng):
        config = small_config()
        params = model.ModelParams.initialize(config, rng)
        image = rng.uniform(size=(8, 8, 3))
        with ad.Tape() as tape:
            feats = model.forward_features(params, image)
            desc = model.descriptor(feats.part_vecs, feats.global_vec)
            relaxed = model.hash_layer(params, desc)
            loss = ad.sum_all(ad.hadamard(relaxed, relaxed))
        tape.backward(loss)
        for name, tens in params.named().items():
            assert tens.grad is not None, f"{name} missing grad"
        assert np.linalg.norm(params.hash_weight.grad) > 0.0

    def test_full_model_gradient_check(self, rng):
        config = small_config()
        params = helpers.float64_params(model.ModelParams.initialize(config, rng))
        image = rng.uniform(size=(8, 8, 3))
        target = rng.standard_normal(config.bits)
        names = list(params.arrays())

        def value(*arrays):
            trial = model.ModelParams.from_arrays(config, dict(zip(names, arrays)))
            feats = model.forward_features(trial, image)
            desc = model.descriptor(feats.part_vecs, feats.global_vec)
            relaxed = model.hash_layer(trial, desc)
            return ad.sum_all(ad.hadamard(relaxed, ad.tensor(target))).item()

        with ad.Tape() as tape:
            feats = model.forward_features(params, image)
            desc = model.descriptor(feats.part_vecs, feats.global_vec)
            relaxed = model.hash_layer(params, desc)
            loss = ad.sum_all(ad.hadamard(relaxed, ad.tensor(target)))
        tape.backward(loss)
        arrays = [values.copy() for values in params.arrays().values()]
        numeric = helpers.finite_difference(value, arrays)
        for name, expected in zip(names, numeric):
            got = params.named()[name].grad
            err = helpers.relative_error(got, expected)
            assert err < 1e-4, f"{name}: relative error {err}"
