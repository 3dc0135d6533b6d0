#!/usr/bin/env bash
# Check that two source checkouts of wsdenoise write identical run directories.
#
# Usage: tools/cli_parity.sh PARENT_DIR CHANGE_DIR
#
# With each checkout's src/ on PYTHONPATH, in a fresh directory per checkout,
# the script synthesizes a 600-document dataset with 200-document dev and test
# splits, and a 300-document dataset with LFs 0 and 3 rewired
# (--misallocated_lfs 0:1,3:0) in its own directory, and two datasets that
# take both of synth's word-draw paths: 301 documents over one-word pools
# (--vocab_size 4 --words_per_doc 5), whose words the scalar calls draw, and
# 150 documents of 300 words over 2000 terms with K=4, whose words span
# several blocks of the block draw.  It then runs the CLI with
# `--repeats 2 --dump_folds true`: baseline, ulf (--iters 3), ulf (--iters 3
# --l2 0.001 --batch_size 7), ulf on random plans that admit unmatched samples
# to training, with fold models stopping at different epochs, 3 to 20, inside
# each fold group (--strategy rndm --lambda_rate 2 --patience 2 --lr 8
# --iters 2), ulf with the settings no other run changes (--k 3 --min_df 2
# --max_features 40 --stall_patience 1 --iters 4), wscw, wscw with --k 4
# --partitions 2 --epsilon 0.5, wscw with ulf settings it does not read (--p 0.3
# --iters 2), so their record in config.txt is compared too, wscl by signature
# and by LF, wscl with --lambda_rate 1, wscl with every setting read from a
# --config file, a ulf grid over --p 0.3,0.7 x --iters 2,3, a
# wscl grid over --lr 0.1,50 --l2 1, whose second point's folds diverge, so a
# recorded fold failure is compared too, and a wscw grid over
# --epsilon 0.5,0.8,1.0 with --budget 2, so the budget's seeded choice of points
# is compared too.  The metrics' other branches are compared through a
# baseline scored by --metric macro_f1 and a wscl run scored by
# --metric binary_f1.  One more ulf run (--iters 2) has no held-out split and is
# scored on training gold, so the null-dev form of metrics.json is compared
# too.  The `stats` verb's output is written into the directory five times:
# with gold, without gold, and for the rewired and the two word-draw datasets.
# It then compares the two directories with `diff -r`, ignoring timing.json,
# the one file that holds wall-clock times.
# Exit status: 0 when they are identical, 1 on any difference (the directories
# are kept for inspection), 2 on bad use.
set -euo pipefail

if [ $# -ne 2 ] || [ ! -d "$1/src/wsdenoise" ] || [ ! -d "$2/src/wsdenoise" ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR (each a checkout with src/wsdenoise)" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/cli_parity.XXXXXX")

run_all() {  # run_all CHECKOUT OUT_DIR
    local src=$1/src out=$2
    mkdir -p "$out"
    cd "$out"  # relative paths, so the reports of both checkouts name the same files
    cli() { PYTHONPATH="$src" python3 -m wsdenoise.cli "$@"; }
    wsd() { cli "$@" > /dev/null; }
    wsd synth --n_samples 600 --seed 11 --out_dir data
    wsd synth --n_samples 200 --seed 12 --out_dir dev
    wsd synth --n_samples 200 --seed 13 --out_dir test
    wsd synth --n_samples 300 --seed 14 --misallocated_lfs 0:1,3:0 --out_dir misallocated
    wsd synth --n_samples 301 --seed 15 --vocab_size 4 --words_per_doc 5 --out_dir one_word_pools
    wsd synth --n_samples 150 --seed 16 --n_classes 4 --vocab_size 2000 --words_per_doc 300 \
        --out_dir blocks
    local train=(--doc_path data/docs.tsv --z_path data/z.tsv --t_path data/t.tsv)
    local io=("${train[@]}" --gold_path data/gold.tsv
              --dev_doc_path dev/docs.tsv --dev_gold_path dev/gold.tsv
              --test_doc_path test/docs.tsv --test_gold_path test/gold.tsv
              --repeats 2 --dump_folds true)
    mkdir -p stats
    cli stats "${train[@]}" --gold_path data/gold.tsv > stats/with_gold.json
    cli stats "${train[@]}" > stats/without_gold.json
    local name
    for name in misallocated one_word_pools blocks; do
        cli stats --doc_path $name/docs.tsv --z_path $name/z.tsv --t_path $name/t.tsv \
            --gold_path $name/gold.tsv > stats/$name.json
    done
    wsd baseline "${io[@]}" --out_dir runs/baseline
    wsd baseline "${io[@]}" --metric macro_f1 --out_dir runs/baseline_macro_f1
    wsd ulf "${io[@]}" --iters 3 --out_dir runs/ulf
    wsd ulf "${io[@]}" --iters 3 --l2 0.001 --batch_size 7 --out_dir runs/ulf_l2
    wsd ulf "${io[@]}" --strategy rndm --lambda_rate 2 --patience 2 --lr 8 --iters 2 \
        --out_dir runs/ulf_rndm
    wsd ulf "${io[@]}" --k 3 --min_df 2 --max_features 40 --stall_patience 1 --iters 4 \
        --out_dir runs/ulf_k3
    wsd wscw "${io[@]}" --out_dir runs/wscw
    wsd wscw "${io[@]}" --k 4 --partitions 2 --epsilon 0.5 --out_dir runs/wscw_k4
    wsd wscw "${io[@]}" --p 0.3 --iters 2 --out_dir runs/wscw_unread
    wsd wscl "${io[@]}" --strategy sgn --out_dir runs/wscl_sgn
    wsd wscl "${io[@]}" --strategy lfs --out_dir runs/wscl_lfs
    wsd wscl "${io[@]}" --lambda_rate 1 --out_dir runs/wscl_lambda
    wsd wscl "${io[@]}" --metric binary_f1 --out_dir runs/wscl_binary_f1
    cat > wscl.cfg <<'CFG'
# a wscl run whose every setting comes from this file
doc_path=data/docs.tsv
z_path=data/z.tsv
t_path=data/t.tsv
gold_path=data/gold.tsv
dev_doc_path=dev/docs.tsv
dev_gold_path=dev/gold.tsv
test_doc_path=test/docs.tsv
test_gold_path=test/gold.tsv
repeats=2
dump_folds=true
strategy=lfs
k=3
lambda_rate=0.5
seed=3
out_dir=runs/wscl_config
CFG
    wsd wscl --config wscl.cfg
    wsd grid --method ulf "${io[@]}" --p 0.3,0.7 --iters 2,3 --out_dir runs/grid_ulf
    wsd grid --method wscl "${io[@]}" --lr 0.1,50 --l2 1 --out_dir runs/grid_wscl
    wsd grid --method wscw "${io[@]}" --epsilon 0.5,0.8,1.0 --budget 2 --out_dir runs/grid_wscw
    wsd ulf "${train[@]}" --gold_path data/gold.tsv --repeats 2 --iters 2 --out_dir runs/ulf_gold
}

(run_all "$parent" "$work/parent")
(run_all "$change" "$work/change")

if diff -r -x timing.json "$work/parent" "$work/change"; then
    echo "identical apart from timing.json: $(find "$work/change" -type f | wc -l) files per checkout"
    rm -rf "$work"
else
    echo "run directories differ; kept in $work" >&2
    exit 1
fi
