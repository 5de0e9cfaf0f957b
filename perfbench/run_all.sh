#!/bin/sh
# Run every workload of BENCHMARK.json untraced and traced into one file.
#   sh perfbench/run_all.sh OUT.json [SEED] [SECONDS]
# SECONDS defaults to run_seconds of BENCHMARK.json. Then compare with
#   python3 perfbench/report.py OUT.json [BEFORE.json]
set -e
out=${1:?usage: run_all.sh OUT.json [SEED] [SECONDS]}
seed=${2:-1}
spec() { python3 -c "import json; s = json.load(open('BENCHMARK.json')); print($1)"; }
seconds=${3:-$(spec 's["run_seconds"]')}
for w in $(spec '*(w["name"] for w in s["workloads"])'); do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" --out "$out" > /dev/null
    done
done
python3 perfbench/report.py "$out"
