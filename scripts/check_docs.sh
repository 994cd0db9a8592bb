#!/usr/bin/env bash
# Doc-drift lint: everything README.md, DESIGN.md, EXPERIMENTS.md and the
# verify skill cite by name must resolve in the tree —
#   * a `dir/…/file.rs` or `.sh` path exists (from the repository root),
#   * a `--bin <name>` is a src/bin/<name>.rs or a `name = "<name>"` in
#     some crate manifest,
#   * a `--workload <name>` is listed in BENCHMARK.json,
#   * a `paraprox-cli <subcommand>` is a row of the flag table in
#     crates/cli/src/args.rs (`Row { name: "<subcommand>", ... }`),
#   * a `` `Type::member` `` names a `fn member` or a `pub member:` field in
#     some crates/*/src file.
# Placeholders (`--bin <name>`, `--bin $b`) match none of the patterns and
# are skipped. A doc that names a deleted file or command fails here
# instead of misleading the next reader.
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md)
args=crates/cli/src/args.rs

# Unique captures of an extended regex across the docs; the sed script
# strips the match down to the cited name.
cited() {
    grep -ohE -e "$1" "${docs[@]}" | sed -E "$2" | sort -u
}

fail=0
stale() {
    echo "check_docs: $1 \`$2\` is cited in $(grep -lF -e "$2" "${docs[@]}" | tr '\n' ' ')but $3" >&2
    fail=1
}

paths=$(cited '[A-Za-z0-9_.-]+(/[A-Za-z0-9_.-]+)+\.(rs|sh)\b' '')
for path in $paths; do
    [ -e "$path" ] || stale path "$path" "does not exist"
done

bins=$(cited '--bin [A-Za-z0-9_-]+' 's/^--bin //')
for bin in $bins; do
    ls crates/*/src/bin/"$bin".rs >/dev/null 2>&1 ||
        grep -qx "name = \"$bin\"" crates/*/Cargo.toml ||
        stale bin "$bin" "no crate builds it"
done

workloads=$(cited '--workload [A-Za-z0-9_-]+' 's/^--workload //')
for workload in $workloads; do
    grep -q "{\"name\": \"$workload\", \"why\"" BENCHMARK.json ||
        stale workload "$workload" "BENCHMARK.json does not list it"
done

subcommands=$(cited 'paraprox-cli( --)? [a-z][a-z-]*' 's/^paraprox-cli( --)? //')
for sub in $subcommands; do
    grep -q "^ *Row { name: \"$sub\"," "$args" ||
        stale subcommand "$sub" "no row of the flag table in $args names it"
done

members=$(cited '`[A-Z][A-Za-z0-9_]*::[a-z_][a-z0-9_]*' 's/^`//')
for member in $members; do
    name=${member#*::}
    grep -rqE "fn $name\b|pub $name:" crates/*/src ||
        stale member "$member" "no crates/*/src file has \`fn $name\` or \`pub $name:\`"
done

if [ "$fail" -ne 0 ]; then
    echo "check_docs: FAIL — fix the citation by deleting or correcting the prose" >&2
    exit 1
fi
echo "check_docs: OK ($(echo "$paths" | wc -w) paths, $(echo "$bins" | wc -w) bins," \
    "$(echo "$workloads" | wc -w) workloads, $(echo "$subcommands" | wc -w) subcommands," \
    "$(echo "$members" | wc -w) members)"
