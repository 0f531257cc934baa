import pickle

import pytest


class _CreatesFile:
    """Unpickling this object creates the file at ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


@pytest.fixture
def pickled_model(tmp_path):
    """A would-be model file holding a pickle that, if unpickled, creates
    a marker file; returns the two paths."""
    path, marker = tmp_path / "pickled.crf", tmp_path / "marker"
    path.write_bytes(pickle.dumps(_CreatesFile(str(marker))))
    return path, marker


@pytest.fixture
def workspace(tmp_path):
    """A miniature two-domain workspace: tagged source, target, raw input."""
    source = tmp_path / "source"
    source.mkdir()
    (source / "s1.pos").write_text(
        "地板_NN 很_AD 好_VA\n地_NN 很_AD 大_VA\n板_NN 好_VA\n", encoding="utf-8"
    )
    (source / "s2.pos").write_text(
        "大肠_NN 杆菌_NN 很_AD 大_VA\n地板_NN 好_VA\n", encoding="utf-8"
    )

    train = tmp_path / "train"
    train.mkdir()
    (train / "t1.seg").write_text(
        "干扰素 很 好\n地板 很 好\n干扰素 好\n地板 好\n", encoding="utf-8"
    )
    (train / "t2.seg").write_text(
        "杆菌 很 大\n干扰素 很 大\n杆菌 大\n", encoding="utf-8"
    )

    dev = tmp_path / "dev"
    dev.mkdir()
    (dev / "d1.seg").write_text("干扰素 很 好\n地板 大\n", encoding="utf-8")

    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "r1.txt").write_text("干扰素很好\n\n地板好\n", encoding="utf-8")

    config = tmp_path / "run.cfg"
    config.write_text(
        f"""\
[data]
source = {source}
target_train = {train}
target_dev = {dev}

[features]
groups = CF

[knowledge]
archive = {tmp_path / 'kb'}
sim_k = 3

[train]
mode = target
l2 = 0.01
max_iterations = 150

[output]
model = {tmp_path / 'out' / 'model.crf'}
report = {tmp_path / 'out' / 'report.csv'}
""",
        encoding="utf-8",
    )
    return tmp_path
