#!/usr/bin/env bash
# Three-lane verification:
#   lane 1 — tier-1: full Release build + the `tier1`-labeled ctest suite.
#            Test labels (tests/CMakeLists.txt + bench/CMakeLists.txt):
#              tier1  every gtest suite + the perf-comparator self-test;
#                     the PR lane, run here and in ci.yml via `ctest -L tier1`
#              soak   quick runs of serve_soak / attack_robustness /
#                     chaos_soak, plus lstm_cell_exhaustive_test (the
#                     LSTM cell kernel's rungs on all 2^32 inputs)
#              bench  quick runs of infer_latency / obs_overhead /
#                     frontend_qps / whatif_fanout, plus ops_microbench and
#                     train_throughput
#            Each bench test fails when its bench exits 1 on a failed
#            check. soak and bench are what ci.yml's bench-smoke job runs;
#            pass --all-tests to run every label here (what ci-nightly.yml
#            does).
#   lane 2 — sanitized: ASan+UBSan build of the robustness-critical suites
#            (fault injection / imputation, the training guard, the
#            checkpoint/serialization layer, the serving stack + front door,
#            the parallel execution layer, the SIMD/quantized kernel
#            layer, the conv trunk, the inference path, and the training
#            path), which exercise the code paths that write through masks,
#            restore checkpointed tensors, parse untrusted checkpoint bytes,
#            share work across pool threads, write packed panels at ragged
#            tile edges, serve every prediction from dirty arena slots, and
#            backpropagate through records that point into the arena.
#   lane 3 — TSan: -DAPOTS_SANITIZE=thread build of the thread-pool,
#            parallel-determinism, serving-watchdog, MPSC-queue, and
#            frontend suites (the code that runs more than one thread), plus
#            the quick serving soak, frontend load, chaos soak and what-if
#            fan-out benches, so the concurrent producers race the serving
#            thread under the race detector.
# Usage: scripts/verify.sh [--tier1-only | --asan-only | --tsan-only]
#                          [--all-tests] [--ci]
#   --all-tests  lane 1 runs every ctest label (tier1 + soak + bench)
#                instead of just tier1.
#   --ci  non-interactive CI profile: pins APOTS_NUM_THREADS=2 so pool-backed
#         code runs multi-threaded even on small runners, and echoes every
#         command for the job log.
set -euo pipefail
cd "$(dirname "$0")/.."

lane_tier1=1
lane_asan=1
lane_tsan=1
all_tests=0
ci_mode=0
for arg in "$@"; do
  case "${arg}" in
    --tier1-only) lane_asan=0; lane_tsan=0 ;;
    --asan-only) lane_tier1=0; lane_tsan=0 ;;
    --tsan-only) lane_tier1=0; lane_asan=0 ;;
    --all-tests) all_tests=1 ;;
    --ci) ci_mode=1 ;;
    *)
      echo "usage: $0 [--tier1-only | --asan-only | --tsan-only] [--all-tests] [--ci]" >&2
      exit 2
      ;;
  esac
done

if [[ ${ci_mode} -eq 1 ]]; then
  export APOTS_NUM_THREADS=2
  export CLICOLOR=0
  set -x
fi

# The thread-pool and data-parallel trainer suites, shared by the sanitizer
# lanes.
parallel_regex='ThreadPool|GlobalPool|PoolSizeSweep'
# The SIMD/quantized kernel layer: packed-panel writes at ragged tile
# edges and every register-tile row count, the prepared (packed-once)
# right operand, the LSTM cell kernel's loads and stores at its vector
# tails, the int8/fp16 pack+compute scratch arenas and the vector int8 row
# quantization's masked tails, the Relu/LeakyRelu eight-float passes, and
# the forced-ISA dispatch ladder — the code most likely to read or write
# one lane past a panel boundary. LstmCellKernel is the tier-1 suite; the
# exhaustive soak binary is not built in these lanes.
kernel_regex='KernelEquivalence|QuantKernel|LstmCellKernel|ActivationPass'
# The conv trunk: batched im2col/col2im over channel-major planes, the
# per-block workspace slots it rewinds, and the per-sample accumulating
# weight-gradient products over strided column blocks.
conv_regex='ConvTrunk'
# The observability layer's concurrent suites: counters/histograms written
# from many threads, trace buffers racing snapshot/emit.
obs_regex='CounterTest|GaugeTest|HistogramTest|RegistryTest|MetricsEnabled|TraceSpan|TraceRecorder'
# The front-door request path: the lock-free MPSC ring and the frontend's
# producers racing the background serving thread.
frontdoor_regex='MpscQueue|Frontend'
# The sharded serving plane: road-graph partitions, the replicated
# shard/router/boundary-exchange stack (whose replicas each run a watchdog
# sampler thread against the shared VirtualClock), and the chaos
# scheduler/driver that tears replicas down mid-serve.
sharded_regex='RoadGraph|PartitionTest|ShardedService|ParseChaosKinds|ChaosScheduler|ChaosDriver'
# The inference path: every prediction runs the workspace-arena forward,
# whose slots are handed out dirty — the runtime, the arena itself, the
# what-if context batches, and the attackers' secondary runtimes — plus the
# one sample-layout encoder's raw-pointer scatter, which training batches
# run too.
arena_regex='InferenceRuntime|InferenceConfigGuard|WorkspaceTest|ContextSpec|ContextTable|ContextAssembly|ContextRuntime|PlausibilityBudget|AttackerTest|ResidualDetector|RdatDefense|FeatureAssemblerTest'

# The training path: every layer's recorded forward leaves raw pointers
# into its workspace (its input, each LSTM step's states and gates, the
# trunk's columns and activations) that Backward reads after the forward
# returns, and Backward takes its scratch from the same workspace — the
# layer suites and the LSTM/dense bitwise oracle, the finite-difference
# sweeps, the predictor families (at paper scale too), and the
# discriminator and trainer.
train_regex='GradientTest|GradientCheckerSelfTest|LstmGradientSweep|Conv2dGradientSweep|PredictorFamilySweep|PaperScale|DiscriminatorTest|TrainerFixture|LstmTest|DenseTest|ReluTest|SequentialTest|LstmOracleTest|DenseOracleTest'

if [[ ${lane_tier1} -eq 1 ]]; then
  echo "=== lane 1: tier-1 (Release build + labeled ctest) ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j
  if [[ ${all_tests} -eq 1 ]]; then
    ctest --test-dir build --output-on-failure -j "$(nproc)"
  else
    ctest --test-dir build --output-on-failure -j "$(nproc)" -L tier1
  fi
fi

if [[ ${lane_asan} -eq 1 ]]; then
  echo "=== lane 2: ASan+UBSan (fault injector, train guard, parallel, inference, training suites) ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DAPOTS_SANITIZE=address
  cmake --build build-asan -j --target fault_injector_test train_guard_test \
    thread_pool_test parallel_determinism_test checkpoint_test \
    feature_cache_stream_test serve_test obs_metrics_test obs_trace_test \
    mpsc_queue_test frontend_test kernel_equivalence_test quant_kernel_test \
    road_graph_test sharded_service_test chaos_test inference_runtime_test \
    workspace_test context_test attack_test features_test conv_trunk_test \
    nn_layers_test nn_gradient_test lstm_oracle_test predictor_test \
    discriminator_trainer_test paper_scale_test csv_table_test \
    parser_mutation_test apots_cli
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)" \
    -R "FaultInjector|FaultKinds|ValidityMask|Imputation|FeatureAssemblerMask|TrafficDatasetBounds|TrainGuard|GuardedTraining|SerializeV2|CheckpointStore|KillRestore|FeatureCacheKey|FeatureCacheStream|FaultyFeed|StreamIngestor|ServeWatchdog|Supervisor|Harness|${parallel_regex}|${obs_regex}|${frontdoor_regex}|${kernel_regex}|${conv_regex}|${sharded_regex}|${arena_regex}|${train_regex}|TrafficDatasetCsv|ParserMutation"
  # apots_cli end to end: the README examples and every usage error.
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)" -R '^cli_'
fi

if [[ ${lane_tsan} -eq 1 ]]; then
  echo "=== lane 3: TSan (thread pool + parallel determinism suites) ==="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DAPOTS_SANITIZE=thread
  cmake --build build-tsan -j --target thread_pool_test parallel_determinism_test \
    serve_test serve_soak obs_metrics_test obs_trace_test \
    mpsc_queue_test frontend_test frontend_qps kernel_equivalence_test \
    quant_kernel_test nn_layers_test sharded_service_test chaos_test \
    chaos_soak whatif_fanout
  # The kernel suites ride along under TSan because the tile and panel
  # loops and the int8 pack+compute path all fan out across the global pool.
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
    -R "${parallel_regex}|ServeWatchdog|Supervisor|${obs_regex}|${frontdoor_regex}|${kernel_regex}|ShardedService|ChaosDriver"
  # The quick serving soak, frontend load, chaos soak and what-if fan-out
  # under TSan, through their bench/CMakeLists.txt registrations: the
  # watchdog sampler races the serving thread's arm/disarm window;
  # closed-loop producers, the open-loop dispatcher and overload shedding
  # race the frontend's consumer; 2x2 replicas' watchdog samplers read the
  # shared VirtualClock while the chaos driver kills, stalls and skews
  # replicas; what-if batches shard across the pool while context specs
  # are handed off through the table's shared_ptr.
  ctest --test-dir build-tsan --output-on-failure \
    -R '^(serve_soak|frontend_qps|chaos_soak|whatif_fanout)_quick$'
fi

echo "verify: all requested lanes passed"
