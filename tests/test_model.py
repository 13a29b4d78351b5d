import numpy as np
import pytest

from pointvector import nnops
from pointvector.errors import SizeError
from pointvector.geometry import PointSetBatch
from pointvector.model import build_model, preset_config
from pointvector.nnops import GradTape


def cloud(rng, b, n):
    return PointSetBatch(positions=rng.uniform(-1, 1, (b, n, 3)))


class TestCloudSize:
    def test_min_points_is_exact(self):
        rng = np.random.default_rng(0)
        mdl = build_model(preset_config("toy-seg", num_classes=4))
        need = mdl.min_points()
        assert mdl.forward_seg(cloud(rng, 1, need), "eval").data.shape == (1, need, 4)
        with pytest.raises(SizeError, match=f"at least {need} points"):
            mdl.forward_seg(cloud(rng, 1, need - 1), "eval")

    def test_preset_rejects_small_cloud_at_entry(self):
        mdl = build_model(preset_config("pointvector-s"))
        assert mdl.min_points() == 449  # 449 -> 113 -> 29 -> 8 points, k=8
        with pytest.raises(SizeError, match="at least 449 points"):
            mdl.forward_seg(cloud(np.random.default_rng(1), 1, 256), "eval")

    def test_classification_checks_too(self):
        mdl = build_model(preset_config("toy-cls", num_classes=3))
        with pytest.raises(SizeError, match=f"at least {mdl.min_points()} points"):
            mdl.forward_cls(cloud(np.random.default_rng(2), 2, mdl.min_points() - 1))


class TestAblationCellsTrain:
    @pytest.mark.parametrize("encoder", ["rotation", "mlp", "direction"])
    @pytest.mark.parametrize("vector_dim", [1, 2, 3])
    def test_backward_gives_parameter_shaped_gradients(self, encoder, vector_dim):
        rng = np.random.default_rng(3)
        mdl = build_model(preset_config("toy-seg", num_classes=3, encoder=encoder,
                                        vector_dim=vector_dim))
        with GradTape() as tape:
            logits = mdl.forward_seg(cloud(rng, 2, 40), "train")
            loss = nnops.mean_all(logits)
            grads = nnops.backward(tape, loss)
        params = mdl.named_params()
        assert grads
        for t, g in grads.items():
            assert g.shape == t.data.shape
        assert set(map(id, grads)) <= set(map(id, params.values()))
