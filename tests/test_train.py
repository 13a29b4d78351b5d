import numpy as np

from pointvector import dataio
from pointvector.model import preset_config
from pointvector.train import TrainConfig, train_loop


def test_remainder_of_one_cloud_joins_previous_batch():
    data = dataio.make_classification_dataset(num_clouds=25, num_points=32, seed=0)
    assert len(data.split_indices("train")) == 20
    cfg = TrainConfig(epochs=1, batch_size=19, augment=False, seed=0,
                      deterministic_timing=True)
    report = train_loop(preset_config("toy-cls", num_classes=data.num_classes),
                        cfg, data)
    assert [r.split for r in report.rows] == ["train", "val"]
    assert all(np.isfinite(r.loss) for r in report.rows)
