"""One federation, round by round.

Six clients with mixed architectures run the full exchange loop: cluster by
model outputs on the unlabeled pool, receive a donor model, train it and
their own mutually, pick the better lineage on validation loss, then adopt the
aggregated result. The table shows who borrowed from whom and which lineage
each client kept as the cluster count opens up; the last line sums where the
rounds' wall time went, span by span.
"""
from fedme import (ArchitectureSpec, FedMeConfig, PartitionSpec,
                   dirichlet_partition, extract_unlabeled, generate_synthetic,
                   run_fedme, split_shard)

dataset = generate_synthetic(num_classes=3, dim=8, per_class_count=150,
                             class_separation=3.0, noise_sigma=1.2, seed=4)
pool, rest = extract_unlabeled(dataset, count=60, seed=4)
parts = dirichlet_partition(rest, PartitionSpec(6, alpha_label=0.5, seed=4))
shards = [split_shard(rest, idx, seed=i) for i, idx in enumerate(parts)]

archs = [ArchitectureSpec(8, widths, 3)
         for widths in ((6,), (6, 6), (6,), (10,), (6, 6), (10,))]

config = FedMeConfig(rounds=8, epochs=2, lr=0.05, cluster_thresholds=(4, 7),
                     seed=0)
models, records, laps = run_fedme(shards, archs, pool, config)

print("round  K  client  cluster  donor  kept  val_acc")
for r in records:
    kept = "own" if r.a == r.client else f"<-{r.a}"
    print(f"{r.round:5d}  {r.k}  {r.client:6d}  {r.cluster:7d}  {r.donor:5d}"
          f"  {kept:>4s}  {r.val_acc:.3f}")

print("\nfinal models:")
last = {r.client: r for r in records if r.round == config.rounds}
for i, model in enumerate(models):
    print(f"  client {i}: hidden {model.arch.hidden_widths}, "
          f"last selection {last[i].a}, test acc {last[i].test_acc:.3f}")

spent = {span: sum(spans[span] for spans in laps.rounds) for span in laps.rounds[0]}
print("\nwall time by span: " + ", ".join(f"{span} {ms:.1f}"
                                          for span, ms in spent.items()))
