#!/bin/sh
# Runs the README's "## Command line" block through the console script and
# its "## Library quickstart" Python blocks, both extracted from README.md so
# CI cannot drift from it, and checks the two sphere-index totals the README
# quotes, the index of its modified-flow stability command and the evidence
# of each row of "## What the paper claims and where it is checked".  Run
# from the repository root, with the package installed:
#   sh .github/check_readme.sh
set -eu

# the two extracted blocks and the two working directories, removed however the script exits
cmds="$(mktemp)"
script="$(mktemp)"
cmd_dir="$(mktemp -d)"
quickstart_dir="$(mktemp -d)"
trap 'rm -rf "$cmds" "$script" "$cmd_dir" "$quickstart_dir"' EXIT

# the README's own "## Command line" block, extracted
awk '/^## Command line/{s=1} s&&/^```sh/{c=1;next} c&&/^```/{exit} c' README.md > "$cmds"
grep -q '^coflow ' "$cmds"
(
  cd "$cmd_dir"
  sh -ex "$cmds" > /dev/null
  # the sphere totals the README quotes, 7047 for levels 3 to 6 and 980733 for the whole window
  coflow sphere-index --l-min 3 --l-max 6 --gamma 3 | tail -n 1 | grep -qx 7047
  coflow sphere-index --l-min 1 --l-max 15 --gamma 3 | tail -n 1 | grep -qx 980733
  # one unstable direction at the README's principal point, decided by classify
  grep -qx 'coflow stability --flavor modified --eps 1 --kappa 4 --gamma 3' "$cmds"
  coflow stability --flavor modified --eps 1 --kappa 4 --gamma 3 | grep -qx '  "index": 1,'
)

# each claim row's command, run only if the README lists it, must print each
# line given after it: claim COMMAND LINE...
claim() {
  c="$1"
  shift
  grep -qF "\`$c\`" README.md
  out="$($c)"
  for line in "$@"; do
    printf '%s\n' "$out" | grep -qxF -- "$line"
  done
}
# rescaling: the scaling mode is -10 at the principal point and +20 at the
# rescaled one, and the normalized flow has index 0 at both eps
claim 'coflow stability --flavor modified --eps 1 --kappa 4 --gamma 3 --point rescaled' '      "re": 20.0,'
claim 'coflow stability --flavor normalized --eps 1 --kappa 4' '  "index": 0,'
claim 'coflow stability --flavor normalized --eps -1 --kappa 4' '  "index": 0,'
# 3-Sasakian: index 1 and a destabilizing window at both eps; at eps = -1 the
# point is a = b = c = 1
claim 'coflow stability --flavor modified --eps 1 --kappa 4 --gamma 3' '  "index": 1,' \
  '    "verdict": "destabilizing"' '      "re": -10.0,'
claim 'coflow stability --flavor modified --eps -1 --kappa 4 --gamma 3' '  "index": 1,' \
  '    "verdict": "destabilizing"' '    "a": 1.0,' '    "b": 1.0,' '    "c": 1.0'
# the round sphere's bound
claim 'coflow sphere-index --l-min 3 --l-max 6 --gamma 3' 7047
claim 'coflow sphere-index --l-min 1 --l-max 15 --gamma 3' 980733

# the README's "## Library quickstart" Python blocks, extracted the same way
awk '/^## Library quickstart/{s=1;next} s&&/^## /{exit} s&&/^```python/{c=1;next} c&&/^```/{c=0;next} c' README.md > "$script"
grep -q '^from coflow import' "$script"
cd "$quickstart_dir"
python "$script" > quickstart.txt
grep -qx '12/5' quickstart.txt
grep -qx 'destabilizing' quickstart.txt
