#!/bin/sh
# Rebuilds every committed document under results/ from a Release build,
# each with the flags it was generated with:
#
#   results/regenerate.sh                 # build into build/, ~5 min on 4 cores
#   BUILD_DIR=/tmp/pc results/regenerate.sh
#
# Every document is a pure function of its flags apart from its wall-clock
# fields (phase_seconds, seconds, timing), so a rerun on an unchanged tree
# changes nothing else; compare runs with those keys stripped, as CI's
# threads-1-vs-4 diffs do:
#
#   python3 results/compare_documents.py OLD.json results/NEW.json
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build=${BUILD_DIR:-$root/build}
out=$root/results
bench=$build/bench

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j"$(nproc)" --target \
  fig3_pastry_vary_n fig4_pastry_vary_k fig5_chord_vary_n fig6_chord_vary_k \
  kademlia_vary_n kademlia_vary_k freq_sketch latency_percentiles \
  scale_frontier fault_resilience cluster_runtime ablation_topn \
  ablation_items ablation_qos ablation_strategies

# Figure sweeps (paper Figs. 3-6 and the Kademlia companions): 2 seeds.
for pair in fig3_pastry_vary_n:fig3 fig4_pastry_vary_k:fig4 \
    fig5_chord_vary_n:fig5 fig6_chord_vary_k:fig6 \
    kademlia_vary_n:kademlia_vary_n kademlia_vary_k:kademlia_vary_k; do
  "$bench/${pair%%:*}" --seeds 2 --json-out "$out/${pair#*:}.json"
done

"$bench/freq_sketch" --json-out "$out/freq_sketch.json"
"$bench/latency_percentiles" --json-out "$out/latency_percentiles.json"
"$bench/scale_frontier" --json-out "$out/scale_frontier.json"
"$bench/fault_resilience" --corpus-out "$out/fault_corpus.json"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"$bench/cluster_runtime" --cache-file "$tmp/cache.bin" \
  --json-out "$out/cluster_runtime.json"

# The ablation tables are what the ablation binaries print.
for ablation in topn items qos strategies; do
  "$bench/ablation_$ablation" > "$out/ablation_$ablation.txt"
done
