#!/usr/bin/env bash
# Tier-1 verification plus a ThreadSanitizer pass over the concurrent
# machinery (pipeline executor, thread pool, task engine) and an
# AddressSanitizer + UndefinedBehaviorSanitizer pass over the whole
# suite. Run from anywhere; builds land in build/, build-tsan/ and
# build-asan/.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
# The matcher suites the kill-switch reruns add to the parity suites,
# with the BFS-extension engine the BFS matcher runs on.
MATCH_TESTS='MatchTest.*:BfsMatchTest.*:MatchDeterminismTest.*:MatchSweepTest.*:MatchSearchTreeTest.*:BfsEngineTest.*:Sweep/EngineEquivalenceTest.*'
# The tensor-kernel suites and the multigraph k-truss/clique cases the
# kill-switch reruns add as well: every GEMM and SpMM against its naive
# reference loop, and the row sets the intersection kernels read.
KERNEL_TESTS='KernelReferenceTest.*:KernelParityTest.*:MatrixTest.*:SparseTest.*:MultigraphTest.*'

echo "== tier-1: build + full test suite =="
cmake -B build -S .
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo
echo "== tsan: pipeline / threadpool / task-engine / tensor-kernel tests =="
# Both sanitizer builds treat compiler warnings as errors: the
# instrumented optimizer reaches paths the plain build does not (GCC
# 12's -Wmaybe-uninitialized among them), and those builds must stay as
# warning-clean as the plain one.
cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan --target gal_tests -j "${JOBS}"
# PipelineTest.* covers the two-level k-executor backend (bounded-queue
# handoff, batch-ordered release); CoreBudgetTest.* the stage/kernel core
# partitioning; the DistGcn cases drive the trainer's pipelined replay
# end-to-end under TSan. WorkDequeTest.* races owner pops against
# concurrent thieves on the Chase–Lev deque, TaskEngineTest.* covers the
# lock-free engine (incl. the deep-spawn stress and the eventcount
# parking lot), MatchDeterminismTest.* drives the DFS matcher's
# adaptive prefix splitting and its per-thread search state at 8
# threads, and MatchSweepTest.* runs both matchers at 4 threads against
# the serial reference on awkward shapes. The cluster suites cover the
# simulated-cluster substrate: TrafficLedgerTest.ConcurrentChargesAreExact
# hammers the sharded ledger counters from 8 threads (the data race the
# old SimulatedNetwork had), and ClusterExchangeTest.* runs the TLAV
# engines at GAL_TASK_THREADS=8 over the exchange channel.
# PageRankTest.* runs the message engine's combining path at 8 threads
# and 1-4 workers: each worker folds into its own dense slots and
# aggregator partial, and Flush resets slots while destination workers
# deliver in parallel. The frontier suites run the direction-optimizing traversals (push scatter, pull
# gather over the shared bitmap, per-worker counters) across worker
# counts under TSan — the parity sweep is where a racy frontier merge
# would show up. The reorder/SIMD/compression parity suites
# (GraphReorderTest, ReorderSimdParityTest, IntersectTest, SimdTest,
# CompressedCsrTest) sweep thread and worker counts over the reordered
# and compressed layouts and vector kernels — the per-worker triangle
# tallies, the per-worker decode scratch, and the SIMD dispatch flag are
# the shared state TSan watches there. SparseTest.* includes the
# two-source gathers dist-GCN runs under staleness, lossy codecs and EC,
# at one and four kernel threads; KernelReferenceTest.* runs every GEMM
# and SpMM at one and eight kernel threads against its reference loop.
./build-tsan/tests/gal_tests \
    --gtest_filter='PipelineTest.*:ThreadPoolTest.*:TaskEngineTest.*:WorkDequeTest.*:MatchDeterminismTest.*:MatchSweepTest.*:KernelContextTest.*:KernelParityTest.*:KernelReferenceTest.*:TensorTest.*:MatrixTest.*:SparseTest.*:CoreBudgetTest.*:TrafficLedgerTest.*:VirtualClockTest.*:ClusterRuntimeTest.*:ExchangeChannelTest.*:ClusterExchangeTest.*:PageRankTest.*:FrontierBitmapTest.*:SlidingQueueTest.*:VertexFrontierTest.*:Workers/FrontierParityTest.*:FrontierTraversalTest.*:GraphReorderTest.*:ReorderSimdParityTest.*:IntersectTest.*:SimdTest.*:CompressedCsrTest.*:DistGcnTest.OverlapReducesSimulatedTime:DistGcnTest.ReportExposesTracesAndOverlapOccupancy:DistGcnTest.CommChannelsRelieveCommBoundOverlap'

echo
echo "== asan+ubsan: every test but the wall-clock ones =="
# Out-of-bounds reads, use-after-free, leaks and undefined behavior
# anywhere the suite reaches; a UBSan report aborts the run. The
# wall-clock tests (the `timing` ctest label in tests/CMakeLists.txt)
# assert speedup ratios that sanitizer overhead distorts, so they are
# excluded by name here.
WALL_CLOCK_TESTS='PipelineTest.OverlapBeatsSerial:KernelScalingTest.*:MatchScalingTest.*:ReorderSimdScalingTest.*'
cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build build-asan --target gal_tests -j "${JOBS}"
./build-asan/tests/gal_tests --gtest_filter="-${WALL_CLOCK_TESTS}"

echo
echo "== ooc: out-of-core shard substrate (ctest label) =="
# The quick gate for src/ooc/ changes: writer/reader roundtrips,
# corrupt-file Status behavior, ShardCache LRU/budget/pin units, and
# the in-memory-vs-out-of-core bit-identity sweeps.
(cd build && ctest -L ooc --output-on-failure -j "${JOBS}")

echo
echo "== tsan: shard-cache suites =="
# The shard cache is the one genuinely concurrent piece of src/ooc/:
# blocking Acquire under a full budget, LRU eviction racing pins, and
# the one-pin-per-thread discipline. PageRank and WCC run the shared
# BSP engines over the store: each worker reads its rows through its
# own RowReader, which holds one pin and drops it when the worker's
# step ends, and sends through its own exchange-channel slots and
# lanes. Triangle counting pins a shard only inside the row builder,
# once per task for its own shard and once per shard its rows reach,
# into per-thread oriented blocks. The parity and shape suites run the
# three out-of-core jobs at 1 and 8 threads, so TSan watches the
# per-worker readers, channel slots and per-thread tallies and blocks
# against concurrent shard loads/evictions.
./build-tsan/tests/gal_tests \
    --gtest_filter='ShardCacheTest.*:OocParityTest.*:OocShapeTest.*'

echo
echo "== forced tiny budget: every shard evicted between touches =="
# The out-of-core kill switch: GAL_OOC_BUDGET_BYTES=1 clamps every open
# to a single-largest-shard budget and GAL_OOC_SHARD_BYTES=512 makes
# shards tiny, so each superstep churns the whole cache. Only the
# parity and shape suites run here — they assert results and
# budget-respect, not exact load/eviction counts (which these knobs
# deliberately change; the shape suite keeps its own shard size).
GAL_OOC_BUDGET_BYTES=1 GAL_OOC_SHARD_BYTES=512 ./build/tests/gal_tests \
    --gtest_filter='OocParityTest.*:OocShapeTest.*'

echo
echo "== tsan + forced compression: parity and matcher suites with GAL_GRAPH_COMPRESSION=1 =="
# Forces every FromEdges in the parity suites onto the delta-varint
# layout, so the streaming decode paths (cursors, per-worker scratch)
# run under TSan with reference and fast runs both compressed. The
# matcher suites decode the candidate join's rows into per-thread
# buffers at every search depth, and the multigraph cases decode rows
# that repeat a neighbor.
GAL_GRAPH_COMPRESSION=1 ./build-tsan/tests/gal_tests \
    --gtest_filter="GraphReorderTest.*:ReorderSimdParityTest.*:IntersectTest.*:SimdTest.*:CompressedCsrTest.*:${MATCH_TESTS}:${KERNEL_TESTS}"

echo
echo "== scalar fallback: parity and matcher suites with GAL_SIMD=0 =="
# The kill switch must leave every result bit-identical — this run is
# what keeps the scalar fallback honest on AVX2 hosts (and is the only
# configuration non-AVX2 hosts ever execute). The matcher suites take
# the candidate join's scalar-merge path here, and the tensor-kernel
# suites the row kernel's scalar fallback.
GAL_SIMD=0 ./build/tests/gal_tests \
    --gtest_filter="GraphReorderTest.*:ReorderSimdParityTest.*:IntersectTest.*:SimdTest.*:CompressedCsrTest.*:${MATCH_TESTS}:${KERNEL_TESTS}"

echo
echo "== scalar fallback + forced compression: GAL_SIMD=0 GAL_GRAPH_COMPRESSION=1 =="
# The two kill-switch extremes together: scalar kernels over the
# compressed layout must still be bit-identical.
GAL_SIMD=0 GAL_GRAPH_COMPRESSION=1 ./build/tests/gal_tests \
    --gtest_filter="GraphReorderTest.*:ReorderSimdParityTest.*:IntersectTest.*:SimdTest.*:CompressedCsrTest.*:${KERNEL_TESTS}"

echo
echo "== fault: elastic cluster runtime (ctest label) =="
# The quick gate for cluster/fault.h + cluster/checkpoint.h changes:
# FaultPlan env/seed resolution, checkpoint ring accounting, the
# recovery session's failure/straggler machinery, the cross-engine
# bit-identity sweeps (TLAV PageRank, frontier BFS/SSSP/WCC, dist-GCN,
# TLAG triangles), and the round barrier's clock/ledger agreement on
# every engine.
(cd build && ctest -L fault --output-on-failure -j "${JOBS}")

echo
echo "== tsan: recovery-parity + rebalance suites =="
# Recovery serializes/restores engine state while host-thread pools run
# the supersteps, and rebalancing rewrites the partition mid-run — the
# sweeps rerun under TSan so a rollback racing a worker pool shows up.
# They cover both TLAV engines on their shared BSP runtime: the message
# engine (PageRank, and TlavEngineTest's programs, checkpoints and
# recoveries) and the frontier substrate's BFS/SSSP/WCC recovery in
# push-only and auto mode, rollbacks across pull steps and straggler
# migration included. RoundBarrierTest.* drives the one round barrier
# through failures and rebalancing on the four TLAV jobs, triangle
# counting and dist-GCN training.
./build-tsan/tests/gal_tests \
    --gtest_filter='FaultParityTest.*:RebalanceTest.*:TlavEngineTest.*:RoundBarrierTest.*'

echo
echo "== forced fault schedule: parity suites with an injected failure =="
# The env kill-switch end of the fault substrate: every TLAV job in the
# reorder/SIMD parity suites, the frontier parity/traversal suites, the
# TLAV traversal/WCC suites and the message engine's own suites
# (TlavEngineTest, PageRankTest, BatchedQueriesTest, ClusterExchangeTest)
# picks up a checkpoint-every-2 schedule with worker 0 failing at
# superstep 3, and all the bit-identity assertions must still hold —
# recovery is invisible to results by construction. Both engines take
# the schedule through the same BSP runtime barrier. The three dist-GCN
# cases leave DistGcnConfig::faults at the environment's plan, so every
# run they compare recovers from the failure while they assert that BSP
# training equals the centralized trainer at every worker count,
# partitioner and P3 split.
GAL_CLUSTER_FAULT_CHECKPOINT=2 GAL_CLUSTER_FAULT_FAIL=0@3 ./build/tests/gal_tests \
    --gtest_filter='GraphReorderTest.*:ReorderSimdParityTest.*:IntersectTest.*:SimdTest.*:CompressedCsrTest.*:Workers/FrontierParityTest.*:FrontierTraversalTest.*:TraversalTest.*:WccTest.*:TlavEngineTest.*:PageRankTest.*:BatchedQueriesTest.*:ClusterExchangeTest.*:DistGcnTest.WorkerCountDoesNotChangeTheMathUnderBsp:DistGcnTest.P3SplitChangesLayer0Traffic:DistGcnTest.BspEqualsTheCentralizedTrainerAtEveryPlacement'

echo
echo "== benchmark smoke: every galbench workload at tiny size =="
# Builds galbench's own Release copy of src/ (.bench_build/) and runs
# both workloads traced and untraced: every job must match its oracle
# (the ooc triangle digest against SerialTriangleCount among them) and
# emit exactly the metrics BENCHMARK.json declares.
python3 galbench/smoke_test.py

echo
echo "check.sh: all green"
