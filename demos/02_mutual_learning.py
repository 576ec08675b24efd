"""Deep mutual learning between two different architectures.

A small one-layer network and a deeper one train jointly on the same batches;
each adds a KL term pulling its predictions toward the other's. Compare the
pair against the same two networks trained independently on cross-entropy
alone. The printout tracks test accuracy per epoch.
"""
import numpy as np

from fedme import (ArchitectureSpec, FedMeConfig, evaluate, generate_synthetic,
                   init_model, nn)

rng = np.random.default_rng(0)
dataset = generate_synthetic(num_classes=4, dim=8, per_class_count=120,
                             class_separation=2.5, noise_sigma=1.5, seed=1)
perm = rng.permutation(dataset.n)
train, test = dataset.subset(perm[:360]), dataset.subset(perm[360:])

small_arch = ArchitectureSpec(8, (6,), 4)
deep_arch = ArchitectureSpec(8, (12, 12), 4)


def run(mutual):
    small = init_model(small_arch, 10)
    deep = init_model(deep_arch, 20)
    # without mutual learning the deep peer trains by its own cross-entropy
    # on the same batches; momentum restarts each epoch, as in a FedMe round
    epoch = FedMeConfig(epochs=1, batch_size=20, lr=0.05, momentum=0.9,
                        weight_decay=0.0, dml=mutual)
    rng = np.random.default_rng(42)
    history = []
    for _ in range(12):
        ((small, deep),) = nn.train(
            [nn.Job(small, deep, train.features, train.labels, rng)], epoch)
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

untrained_loss, _ = evaluate(init_model(small_arch, 10), test.features, test.labels)
print(f"\nuntrained small-model test loss for reference: {untrained_loss:.3f}")
