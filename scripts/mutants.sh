#!/usr/bin/env bash
# Mutant catalogue runner. Copies the working tree to a throwaway directory
# outside the repository, then, for each entry of mutants/catalogue.txt,
# applies the mutation there, runs the entry's command and puts the file
# back. Fails when a `killed` mutant survives or a `survives` mutant dies,
# when a mutant does not compile, when a search string does not occur
# exactly once, or when a command already fails on the unmutated copy.
set -euo pipefail
cd "$(dirname "$0")/.."
catalogue=mutants/catalogue.txt

ids=() files=() searches=() replaces=() commands=() expects=()
declare -A cur=()
flush() {
  [ ${#cur[@]} -eq 0 ] && return
  local key
  for key in id file search replace command expect; do
    if [ -z "${cur[$key]+set}" ]; then
      echo "mutants.sh: entry '${cur[id]:-?}' has no '$key'" >&2
      exit 2
    fi
  done
  case "${cur[expect]}" in killed | survives) ;; *)
    echo "mutants.sh: entry '${cur[id]}': expect must be killed or survives" >&2
    exit 2
    ;;
  esac
  ids+=("${cur[id]}") files+=("${cur[file]}") searches+=("${cur[search]}")
  replaces+=("${cur[replace]}") commands+=("${cur[command]}") expects+=("${cur[expect]}")
  cur=()
}
while IFS= read -r line || [ -n "$line" ]; do
  case "$line" in
    '#'* | ' '*) ;;
    '') flush ;;
    *': '*) cur[${line%%: *}]="${line#*: }" ;;
    *)
      echo "mutants.sh: $catalogue: cannot read line: $line" >&2
      exit 2
      ;;
  esac
done <"$catalogue"
flush

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
git ls-files -z --cached --others --exclude-standard |
  tar --null -T - -cf - | tar -xf - -C "$work"

# Run a command in the copy; its output goes to $work/log.
run() { (cd "$work" && bash -c "$1") >"$work/log" 2>&1; }

echo "==> unmutated copy: every command must pass"
declare -A baseline=()
for i in "${!ids[@]}"; do
  cmd="${commands[$i]}"
  [ -n "${baseline[$cmd]+set}" ] && continue
  baseline[$cmd]=1
  if ! run "$cmd"; then
    tail -n 30 "$work/log"
    echo "FAIL: '$cmd' fails without any mutant" >&2
    exit 1
  fi
  echo "pass: $cmd"
done

failed=0
for i in "${!ids[@]}"; do
  id="${ids[$i]}"
  file="$work/${files[$i]}"
  cp "$file" "$work/original"
  if ! python3 - "$file" "${searches[$i]}" "${replaces[$i]}" <<'EOF'; then
import sys
path, search, replace = sys.argv[1:]
with open(path) as f:
    text = f.read()
n = text.count(search)
if n != 1:
    sys.exit(f"search string occurs {n} times in {path}, not once")
with open(path, "w") as f:
    f.write(text.replace(search, replace))
EOF
    echo "FAIL: $id: re-express or retire it (CHANGES.md)" >&2
    failed=1
    continue
  fi
  if run "${commands[$i]}"; then outcome=survives; else outcome=killed; fi
  # Copy, not move, so the restored file is newer than the mutant's build.
  cp "$work/original" "$file"
  if grep -q "could not compile" "$work/log"; then
    tail -n 30 "$work/log"
    echo "FAIL: $id: the mutant does not compile" >&2
    failed=1
  elif [ "$outcome" != "${expects[$i]}" ]; then
    tail -n 30 "$work/log"
    echo "FAIL: $id: expected ${expects[$i]}, got $outcome" >&2
    failed=1
  else
    echo "ok: $id $outcome (${commands[$i]})"
  fi
done
exit $failed
