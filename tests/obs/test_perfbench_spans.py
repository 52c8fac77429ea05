"""The benchmark's span wrappers still find every function they wrap.

``perfbench/spans.py`` traces the library from outside by replacing
named functions and methods; ``install`` raises ``KeyError`` when one of
them is gone. Running it here makes a rename fail the test suite rather
than the traced benchmark run.
"""

import numpy as np

from perfbench import spans


def test_install_wraps_every_layer_and_uninstall_restores():
    originals = []
    for module_name, path, __, __ in spans.LAYERS:
        owner, attr = spans._resolve(module_name, path)
        originals.append(owner.__dict__[attr])

    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert len(undo) == len(spans.LAYERS)
        for (owner, attr, original), before in zip(undo, originals):
            assert original is before
            assert owner.__dict__[attr] is not original
        from repro import TKDCClassifier, TKDCConfig

        data = np.random.default_rng(0).normal(size=(600, 2))
        TKDCClassifier(TKDCConfig(seed=0, bootstrap_s0=300)).fit(data).classify(data[:50])
    finally:
        spans.uninstall(undo)

    for (owner, attr, __), before in zip(undo, originals):
        assert owner.__dict__[attr] is before
    recorded = tracer.snapshot()
    fit = "core.classifier.fit"
    for layer in ("index.kdtree_build", "core.grid.build", "core.batch_bounds.bootstrap"):
        assert f"{fit}|{layer}" in recorded
    assert "core.classifier.classify|core.classifier.classify" in recorded
