"""Desk-scale personalized federated learning via model exchange."""

from .clustering import cluster_count, kmeans
from .data import (ClientShard, Dataset, dirichlet_partition, extract_unlabeled,
                   generate_synthetic, label_skew, split_shard)
from .engine import (ExchangePlan, FedMeConfig, RoundRecord, aggregate,
                     assign_exchanges, dml_train, fine_tune,
                     model_outputs_on_unlabeled, model_tuning, redistribute,
                     run_fedme)
from .baselines import (run_centralized, run_fedavg, run_hypcluster,
                        run_local_only)
from .harness import (ConfigError, ExperimentConfig, SummaryReport,
                      best_local_init, build_federation, default_lr_grid,
                      grid_search_lr, parse_config, run_experiment, run_single,
                      stall_warning, sweep, write_round_log)
from .nn import (ArchitectureSpec, Job, Model, average_params,
                 deserialize_model, dml_losses_and_grads, evaluate,
                 evaluate_splits, forward, init_model, serialize_model,
                 sgd_step, train)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
