"""Deep mutual learning between two different architectures.

A small one-layer network and a deeper one train jointly on the same batches;
each adds a KL term pulling its predictions toward the other's. Compare the
pair against the same two networks trained independently on cross-entropy
alone. The printout tracks test accuracy per epoch.
"""
import numpy as np

from fedme import (ArchitectureSpec, cross_entropy, evaluate, forward,
                   generate_synthetic, init_model, sgd_step)
from fedme.nn import batch_grads

rng = np.random.default_rng(0)
dataset = generate_synthetic(num_classes=4, dim=8, per_class_count=120,
                             class_separation=2.5, noise_sigma=1.5, seed=1)
perm = rng.permutation(dataset.n)
train, test = dataset.subset(perm[:360]), dataset.subset(perm[360:])

small_arch = ArchitectureSpec(8, (6,), 4)
deep_arch = ArchitectureSpec(8, (12, 12), 4)


def batches(n, size, rng):
    order = rng.permutation(n)
    for start in range(0, n, size):
        yield order[start:start + size]


def run(mutual):
    small = init_model(small_arch, 10)
    deep = init_model(deep_arch, 20)
    # momentum buffers, carried across every step of the run
    buf_s = np.zeros(small_arch.parameter_count())
    buf_d = np.zeros(deep_arch.parameter_count())
    rng = np.random.default_rng(42)
    history = []
    for epoch in range(12):
        for idx in batches(train.n, 20, rng):
            x, y = train.features[idx], train.labels[idx]
            if mutual:
                g_s, g_d = batch_grads(small, x, y, deep)
            else:
                (g_s,) = batch_grads(small, x, y)
                (g_d,) = batch_grads(deep, x, y)
            small, buf_s = sgd_step(small, buf_s, g_s, lr=0.05, momentum=0.9)
            deep, buf_d = sgd_step(deep, buf_d, g_d, lr=0.05, momentum=0.9)
        _, acc_s = evaluate(small, test.features, test.labels)
        _, acc_d = evaluate(deep, test.features, test.labels)
        history.append((acc_s, acc_d))
    return history


solo = run(mutual=False)
mutual = run(mutual=True)

print("test accuracy per epoch (small / deep):")
print("epoch   solo            mutual")
for e, ((ss, sd), (ms, md)) in enumerate(zip(solo, mutual), start=1):
    print(f"{e:5d}   {ss:.3f} / {sd:.3f}   {ms:.3f} / {md:.3f}")

agree_solo = cross_entropy(forward(init_model(small_arch, 10), test.features),
                           test.labels)
print(f"\nuntrained small-model test loss for reference: {agree_solo:.3f}")
