#!/usr/bin/env bash
# Proves the workspace's clippy invariants still bite. Every bin under
# src/bin is linted with `cargo clippy --bin <name> -- -D warnings` plus
# the root workspace's [workspace.lints.clippy] levels (this package sits
# outside that workspace, so it cannot inherit them):
#
# * a bin whose first line is `// must-fail: <text>` must be rejected,
#   with <text> in the diagnostics (so it fails for the intended reason);
# * every other bin (`good`) must pass;
# * a `#![deny(...)]` line under `// header of: <modules>` must appear
#   verbatim in each named crates/core/src/<module>.rs, so the fixtures
#   test the headers the serving path really carries.
#
# Exits non-zero on any violation. Run from anywhere:
#   ci/lint-must-fail/check.sh
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
target=$(mktemp -d)
trap 'rm -rf "$target"' EXIT

read -r -a workspace_lints < <(python3 - "$root/Cargo.toml" <<'EOF'
import sys, tomllib
lints = tomllib.load(open(sys.argv[1], "rb"))["workspace"]["lints"]["clippy"]
print(" ".join(f"-D clippy::{name}" for name, level in lints.items() if level == "deny"))
EOF
)

status=0
fail() {
  echo "::error::lint-must-fail: $*"
  status=1
}

for src in "$here"/src/bin/*.rs; do
  bin=$(basename "$src" .rs)
  expected=$(sed -n '1s|^// must-fail: ||p' "$src")

  modules=""
  while IFS= read -r line; do
    if [[ $line == "// header of: "* ]]; then
      modules=${line#// header of: }
    elif [[ -n $modules ]]; then
      for module in $modules; do
        grep -qxF -- "$line" "$root/crates/core/src/$module.rs" \
          || fail "$bin: crates/core/src/$module.rs lacks the header: $line"
      done
      modules=""
    fi
  done < "$src"

  if out=$(cargo clippy -q --manifest-path "$here/Cargo.toml" --target-dir "$target" \
      --bin "$bin" -- -D warnings "${workspace_lints[@]}" 2>&1); then
    if [[ -n $expected ]]; then
      fail "$bin: clippy accepted it, but it must fail with: $expected"
    else
      echo "ok   $bin (accepted)"
    fi
  elif [[ -z $expected ]]; then
    echo "$out"
    fail "$bin: clippy rejected it, but it must pass"
  elif grep -qF -- "$expected" <<<"$out"; then
    echo "ok   $bin (rejected: $expected)"
  else
    echo "$out"
    fail "$bin: rejected, but not with: $expected"
  fi
done

exit "$status"
