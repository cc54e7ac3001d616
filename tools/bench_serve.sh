#!/usr/bin/env bash
# Produces the serve-layer benchmark report (BENCH_7.json):
#
#   1. builds mcps_load + bench_micro_kernel;
#   2. runs the kernel microbench (the current "after" numbers) with
#      --json;
#   3. runs mcps_load against an embedded server (requests traverse real
#      loopback TCP) sweeping 1/4/16/64 concurrent clients, splicing in
#      the kernel before/after metrics:
#        kernel_before/* — frozen bench/baselines/micro_kernel_pr7_prechange.json
#                          (calendar queue without tombstone compaction)
#        kernel_after/*  — the fresh microbench run (binary-heap kernel)
#   4. validates the merged report against the benchio schema.
#
#   tools/bench_serve.sh [--quick] [--out FILE]
#
# --quick shrinks everything (schema smoke; numbers meaningless; output
# goes to the build tree unless --out says otherwise). Without --quick,
# run on a QUIET machine. The checked-in BENCH_7.json at the repo root
# was produced by this script.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
quick=0
out=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --quick) quick=1; shift ;;
        --out) out="$2"; shift 2 ;;
        *) echo "usage: tools/bench_serve.sh [--quick] [--out FILE]" >&2
           exit 2 ;;
    esac
done

build="${repo_root}/build"
scratch="${build}/bench_serve"
before="${repo_root}/bench/baselines/micro_kernel_pr7_prechange.json"
if [[ -z "${out}" ]]; then
    if [[ "${quick}" == "1" ]]; then out="${scratch}/BENCH_serve_quick.json"
    else out="${repo_root}/BENCH_7.json"; fi
fi

echo "==== build ===="
cmake -S "${repo_root}" -B "${build}" >/dev/null
cmake --build "${build}" -j "${jobs}" \
    --target mcps_load bench_micro_kernel mcps_trace >/dev/null
mkdir -p "${scratch}"

quick_flag=()
load_args=(--clients-list 1,4,16,64 --requests 64 --workers 4)
if [[ "${quick}" == "1" ]]; then
    quick_flag=(--quick)
    load_args=()
fi

echo "==== run bench_micro_kernel (kernel 'after' numbers) ===="
"${build}/bench/bench_micro_kernel" "${quick_flag[@]}" \
    --json "${scratch}/micro_kernel.json"

echo "==== run mcps_load (embedded server, loopback TCP) ===="
"${build}/tools/mcps_load" --embed "${quick_flag[@]}" "${load_args[@]}" \
    --import-metrics "${before}" kernel_before \
    --import-metrics "${scratch}/micro_kernel.json" kernel_after \
    --json "${out}"

echo "==== validate ===="
"${build}/tools/mcps_trace" check-bench "${out}"
echo "serve bench written: ${out}"
