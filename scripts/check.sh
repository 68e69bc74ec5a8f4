#!/usr/bin/env bash
# Tier-1 verification plus a ThreadSanitizer pass over the concurrent
# machinery (pipeline executor, thread pool, task engine) and an
# AddressSanitizer + UndefinedBehaviorSanitizer pass over the whole
# suite. Run from anywhere; builds land in build/, build-tsan/ and
# build-asan/.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "== tier-1: build + full test suite =="
cmake -B build -S .
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo
echo "== tsan: pipeline / threadpool / task-engine / tensor-kernel tests =="
cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan --target gal_tests -j "${JOBS}"
# PipelineTest.* covers the two-level k-executor backend (bounded-queue
# handoff, batch-ordered release); CoreBudgetTest.* the stage/kernel core
# partitioning; the DistGcn cases drive the trainer's pipelined replay
# end-to-end under TSan. WorkDequeTest.* races owner pops against
# concurrent thieves on the Chase–Lev deque, TaskEngineTest.* covers the
# lock-free engine (incl. the deep-spawn stress and the eventcount
# parking lot), and MatchDeterminismTest.* drives the DFS matcher's
# adaptive prefix splitting at 8 threads. The cluster suites cover the
# simulated-cluster substrate: TrafficLedgerTest.ConcurrentChargesAreExact
# hammers the sharded ledger counters from 8 threads (the data race the
# old SimulatedNetwork had), and ClusterExchangeTest.* runs the TLAV
# engines at GAL_TASK_THREADS=8 over the exchange channel. The frontier
# suites run the direction-optimizing traversals (push scatter, pull
# gather over the shared bitmap, per-worker counters) across worker
# counts under TSan — the parity sweep is where a racy frontier merge
# would show up. The reorder/SIMD/compression parity suites
# (GraphReorderTest, ReorderSimdParityTest, IntersectTest, SimdTest,
# CompressedCsrTest) sweep thread and worker counts over the reordered
# and compressed layouts and vector kernels — the per-worker triangle
# tallies, the per-worker decode scratch, and the SIMD dispatch flag are
# the shared state TSan watches there.
./build-tsan/tests/gal_tests \
    --gtest_filter='PipelineTest.*:ThreadPoolTest.*:TaskEngineTest.*:WorkDequeTest.*:MatchDeterminismTest.*:KernelContextTest.*:KernelParityTest.*:TensorTest.*:MatrixTest.*:SparseTest.*:CoreBudgetTest.*:TrafficLedgerTest.*:VirtualClockTest.*:ClusterRuntimeTest.*:ExchangeChannelTest.*:ClusterExchangeTest.*:FrontierBitmapTest.*:SlidingQueueTest.*:VertexFrontierTest.*:Workers/FrontierParityTest.*:FrontierTraversalTest.*:GraphReorderTest.*:ReorderSimdParityTest.*:IntersectTest.*:SimdTest.*:CompressedCsrTest.*:DistGcnTest.OverlapReducesSimulatedTime:DistGcnTest.ReportExposesTracesAndOverlapOccupancy:DistGcnTest.CommChannelsRelieveCommBoundOverlap'

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
# the engines' one-pin-per-thread discipline. The parity suites run the
# three out-of-core engines at 1 and 8 threads, so TSan watches the
# atomic accumulators (fetch_add rank mass, CAS label min, per-thread
# tallies) against concurrent shard loads/evictions.
./build-tsan/tests/gal_tests \
    --gtest_filter='ShardCacheTest.*:OocParityTest.*'

echo
echo "== forced tiny budget: every shard evicted between touches =="
# The out-of-core kill switch: GAL_OOC_BUDGET_BYTES=1 clamps every open
# to a single-largest-shard budget and GAL_OOC_SHARD_BYTES=512 makes
# shards tiny, so each superstep churns the whole cache. Only the
# parity suites run here — they assert results and budget-respect, not
# exact load/eviction counts (which these knobs deliberately change).
GAL_OOC_BUDGET_BYTES=1 GAL_OOC_SHARD_BYTES=512 ./build/tests/gal_tests \
    --gtest_filter='OocParityTest.*'

echo
echo "== tsan + forced compression: parity suites with GAL_GRAPH_COMPRESSION=1 =="
# Forces every FromEdges in the parity suites onto the delta-varint
# layout, so the streaming decode paths (cursors, per-worker scratch)
# run under TSan with reference and fast runs both compressed.
GAL_GRAPH_COMPRESSION=1 ./build-tsan/tests/gal_tests \
    --gtest_filter='GraphReorderTest.*:ReorderSimdParityTest.*:IntersectTest.*:SimdTest.*:CompressedCsrTest.*'

echo
echo "== scalar fallback: parity suites with GAL_SIMD=0 =="
# The kill switch must leave every result bit-identical — this run is
# what keeps the scalar fallback honest on AVX2 hosts (and is the only
# configuration non-AVX2 hosts ever execute).
GAL_SIMD=0 ./build/tests/gal_tests \
    --gtest_filter='GraphReorderTest.*:ReorderSimdParityTest.*:IntersectTest.*:SimdTest.*:CompressedCsrTest.*'

echo
echo "== scalar fallback + forced compression: GAL_SIMD=0 GAL_GRAPH_COMPRESSION=1 =="
# The two kill-switch extremes together: scalar kernels over the
# compressed layout must still be bit-identical.
GAL_SIMD=0 GAL_GRAPH_COMPRESSION=1 ./build/tests/gal_tests \
    --gtest_filter='GraphReorderTest.*:ReorderSimdParityTest.*:IntersectTest.*:SimdTest.*:CompressedCsrTest.*'

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
# the schedule through the same BSP runtime barrier.
GAL_CLUSTER_FAULT_CHECKPOINT=2 GAL_CLUSTER_FAULT_FAIL=0@3 ./build/tests/gal_tests \
    --gtest_filter='GraphReorderTest.*:ReorderSimdParityTest.*:IntersectTest.*:SimdTest.*:CompressedCsrTest.*:Workers/FrontierParityTest.*:FrontierTraversalTest.*:TraversalTest.*:WccTest.*:TlavEngineTest.*:PageRankTest.*:BatchedQueriesTest.*:ClusterExchangeTest.*'

echo
echo "check.sh: all green"
