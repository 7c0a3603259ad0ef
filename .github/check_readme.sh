#!/bin/sh
# Runs the README's "## Command line" block through the console script and
# its "## Library quickstart" Python blocks, both extracted from README.md so
# CI cannot drift from it.  Run from the repository root, with the package
# installed:  sh .github/check_readme.sh
set -eu

# the README's own "## Command line" block, extracted
cmds="$(mktemp)"
awk '/^## Command line/{s=1} s&&/^```sh/{c=1;next} c&&/^```/{exit} c' README.md > "$cmds"
grep -q '^coflow ' "$cmds"
(
  cd "$(mktemp -d)"
  sh -ex "$cmds" > /dev/null
)

# the README's "## Library quickstart" Python blocks, extracted the same way
script="$(mktemp)"
awk '/^## Library quickstart/{s=1;next} s&&/^## /{exit} s&&/^```python/{c=1;next} c&&/^```/{c=0;next} c' README.md > "$script"
grep -q '^from coflow import' "$script"
cd "$(mktemp -d)"
python "$script" > quickstart.txt
grep -qx '12/5' quickstart.txt
grep -qx 'destabilizing' quickstart.txt
