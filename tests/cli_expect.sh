#!/usr/bin/env bash
# Runs apots_cli in a fresh directory and fails unless its last step exits
# with EXPECTED; earlier steps (separated by ';;') must exit 0. A usage
# error (2) must also leave the directory empty: no file is written.
# usage: cli_expect.sh EXPECTED CLI ARGS... [';;' ARGS...]
expected=$1
cli=$2
shift 2
dir=$(mktemp -d) || exit 1
trap 'rm -rf "${dir}"' EXIT
cd "${dir}" || exit 1
steps=()
current=()
for arg in "$@" ";;"; do
  if [[ "${arg}" == ";;" ]]; then
    steps+=("$(printf '%q ' "${current[@]}")")
    current=()
  else
    current+=("${arg}")
  fi
done
rc=0
for i in "${!steps[@]}"; do
  eval "\"${cli}\" ${steps[i]}" > /dev/null
  rc=$?
  if (( i + 1 < ${#steps[@]} && rc != 0 )); then
    echo "step ${i} exited ${rc}" >&2
    exit 1
  fi
done
if [[ ${rc} -ne ${expected} ]]; then
  echo "exit ${rc}, expected ${expected}" >&2
  exit 1
fi
if [[ ${expected} -eq 2 && -n "$(ls -A)" ]]; then
  echo "a usage error wrote: $(ls -A)" >&2
  exit 1
fi
