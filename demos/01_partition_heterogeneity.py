"""How the Dirichlet partition controls client heterogeneity.

Generates one synthetic dataset and splits it across 8 clients at several
label-concentration settings, printing per-client label histograms and the
mean total-variation distance from the global label distribution. Small
alpha means each client sees only a few classes; IID is the flat baseline.
"""
import numpy as np

from fedme import (PartitionSpec, dirichlet_partition, generate_synthetic,
                   label_skew)

dataset = generate_synthetic(num_classes=4, dim=16, per_class_count=200,
                             class_separation=3.0, noise_sigma=1.5, seed=0)
print(f"dataset: {dataset.n} rows, {dataset.dim} features, "
      f"{dataset.num_classes} classes\n")

for alpha in (0.1, 0.5, 5.0, None):
    spec = PartitionSpec(num_clients=8, alpha_label=alpha, alpha_size=10.0,
                         seed=7)
    parts = dirichlet_partition(dataset, spec)
    skew = label_skew([dataset.labels[p] for p in parts], dataset.num_classes)
    name = "iid" if alpha is None else f"alpha={alpha}"
    print(f"--- {name}  (label skew {skew:.3f}) ---")
    for i, part in enumerate(parts):
        hist = np.bincount(dataset.labels[part], minlength=4)
        bars = " ".join(f"{h:4d}" for h in hist)
        print(f"  client {i}: n={len(part):4d}  classes [{bars}]")
    print()
