"""Edge VNF orchestration lab: simulator, learners, benchmark harness."""

import os

# The networks are small, so extra BLAS threads only add hand-off cost, and a
# lot of it when other processes hold the cores. numpy reads these when it is
# first imported, so they are set before the imports below; a value the user
# set is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .env import (
    VnfSpec, CostParams, PoolConfig, TrafficConfig, ParamAction,
    AllocationState, EpochTraffic, EpochMetrics, StepOutcome, StepRecord,
    EpochSummary, VnfEnv,
    SpecTable, resource_range, qos, cost_components, agent_cost,
    sample_rate_block, sample_arrivals, sample_cloud_rate, apply_departures,
)
from .nn import Mlp, AdamState, gaussian_init, forward, forward_cached, \
    backward, input_grad, soft_update, softmax, clone
from .pat import PatConfig, PatAgent, ReplayBuffer, Transition
from .baselines import (GreedyAgent, CloudAgent, RandomAgent, DiscretizedGrid,
                        BaselineRlConfig, DdqnPairAgent, DdpgPairAgent)
from .harness import (ExperimentConfig, RunConfig, ConfigError, defaults,
                      load_config, config_from_dict, config_to_dict,
                      export_defaults, resolve_seed, build_env, build_agent,
                      run_experiment, evaluate_agent, compare, compare_configs,
                      compute_kpis, aggregate_kpis)

__version__ = "0.1.0"
