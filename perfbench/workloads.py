"""Inputs of the three workloads, and checkpoint loading.

Each workload has a fixed panel of queries: for every cell, (sentence,
position) pairs drawn once from the corpus with ``PANEL_SEED``. ``--seed``
orders the panel (and, for ``service-mix``, picks tenants and repeat
targets), so every seed measures the same work; seed-drawn sentences made
the seed-to-seed spread of throughput, latency and mean radius larger
than any bound the benchmark can set. The model weights are the cached
``sst-small`` checkpoints in ``.model_cache``, loaded directly, never
through a code path that could retrain and write a new checkpoint into
the repository.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "checkpoint_path", "load_model",
           "query_pool", "make_query", "submission"]

INF = math.inf
PANEL_SEED = 20210620

# The Table-1 architecture of repro.experiments.harness.SCALE; the
# checkpoint file name encodes the same fields (see get_transformer).
CHECKPOINT = "sst-small_L{n_layers}_E16_H16_div0_rs0.0_ct0_n400_e16_s1.npz"


@dataclass(frozen=True)
class Workload:
    """One workload's fixed shape and panel cells.

    ``cells`` lists ``(n_layers, length, p)``: the panel holds one query
    of every cell.
    """

    name: str
    verifier: str
    config: dict
    n_iterations: int
    cells: tuple
    splits: tuple = ("test",)

    @property
    def depths(self):
        return tuple(sorted({cell[0] for cell in self.cells}))


def _cells(depths, lengths, norms):
    return tuple((depth, length, p)
                 for depth in depths for length in lengths for p in norms)


WORKLOADS = {
    # Table 1: DeepT-Fast on the 3/6/12-layer checkpoints under three
    # norms with short sentences, and long sentences on the 3-layer one. A
    # pass stays a few seconds long, so a run makes several passes and
    # every search is timed several times.
    "fast-sweep": Workload(
        name="fast-sweep", verifier="deept",
        config={"dot_product_variant": "fast", "noise_symbol_cap": 128},
        n_iterations=5,
        cells=_cells((3, 6, 12), (5,), (1.0, 2.0, INF))
        + _cells((3,), (7,), (1.0, 2.0, INF))),
    # Trace-guided adaptive searches on the 2-layer checkpoint: every
    # search escalates to Precise passes at its failing probes. One query
    # per norm keeps a pass to a few seconds.
    "adaptive-precise": Workload(
        name="adaptive-precise", verifier="adaptive",
        config={"dot_product_variant": "fast", "noise_symbol_cap": 32,
                "softmax_sum_refinement": False},
        n_iterations=4,
        cells=_cells((2,), (5,), (1.0, 2.0, INF))),
    # Fresh service traffic: one length and one norm, so fresh queries
    # share a batch key and can coalesce.
    "service-mix": Workload(
        name="service-mix", verifier="deept",
        config={"dot_product_variant": "fast", "noise_symbol_cap": 128},
        n_iterations=5,
        cells=_cells((3,), (5,), (2.0,)),
        splits=("test", "train")),
}


def checkpoint_path(root, n_layers):
    return os.path.join(root, ".model_cache",
                        CHECKPOINT.format(n_layers=n_layers))


def load_model(root, n_layers):
    """The cached checkpoint in the harness architecture; never trains.

    Raises ``FileNotFoundError`` / ``ValueError`` on a missing or
    unreadable checkpoint instead of retraining.
    """
    import numpy as np

    from repro.experiments.harness import SCALE, get_corpus
    from repro.nn import TransformerClassifier

    dataset = get_corpus("sst-small", SCALE)
    model = TransformerClassifier(
        len(dataset.vocab), embed_dim=SCALE.embed_dim,
        n_heads=SCALE.n_heads, hidden_dim=SCALE.hidden_dim,
        n_layers=n_layers, max_len=SCALE.max_len, seed=SCALE.seed,
        divide_by_std=False)
    with np.load(checkpoint_path(root, n_layers)) as archive:
        state = {key: np.array(archive[key]) for key in archive.files}
    model.load_state_dict(state)
    return model, dataset


def query_pool(model, dataset, length, splits, cell):
    """(sentence, position) pairs the model classifies correctly.

    Positions exclude 0 ([CLS]), as in the harness protocol. The pairs are
    shuffled with the fixed panel seed and the cell's key, so a workload's
    panel is the same for every ``--seed``.
    """
    import numpy as np

    # The cell key (n_layers, length, p, ...) seeds the shuffle; p = inf
    # enters as 0.
    rng = np.random.default_rng([PANEL_SEED, *(
        0 if math.isinf(x) else int(x) for x in cell)])
    pairs = []
    for split in splits:
        sequences = getattr(dataset, f"{split}_sequences")
        labels = getattr(dataset, f"{split}_labels")
        for sequence, label in zip(sequences, labels):
            if len(sequence) != length or \
                    model.predict(sequence) != int(label):
                continue
            sentence = tuple(int(t) for t in sequence)
            pairs.extend((sentence, position)
                         for position in range(1, length))
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


def make_query(workload, model_hash, sentence, position, p):
    """The CertQuery a service submission of the same fields parses to."""
    from repro.scheduler.queries import (CertQuery, corpus_fingerprint,
                                         verifier_config_items)
    from repro.verify import VerifierConfig

    return CertQuery(
        verifier=workload.verifier, model_hash=model_hash,
        corpus_fingerprint=corpus_fingerprint([sentence]),
        sentence=sentence, position=position, p=float(p),
        config=verifier_config_items(VerifierConfig(**workload.config)),
        n_iterations=workload.n_iterations)


def submission(workload, tenant, sentence, position, p):
    """The JSON body of a service submission."""
    return {"tenant": tenant, "sentence": list(sentence),
            "position": position, "p": "inf" if p == INF else p,
            "verifier": workload.verifier, "config": dict(workload.config),
            "n_iterations": workload.n_iterations}
