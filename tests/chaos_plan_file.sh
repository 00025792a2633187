#!/bin/sh
# `chaos --plan-file` on files of several plans, laid out as --fail-file
# writes them: a comment line, then the plan's text, per plan. Every plan
# is replayed, each on the leg its seed line names.
#
#   sh chaos_plan_file.sh CHAOS WORKDIR two-mc    # two mc plans
#   sh chaos_plan_file.sh CHAOS WORKDIR mc-exec   # an mc and an exec plan
#
# Exits 0 when the replay prints what the case expects, 1 otherwise.
set -u
chaos=$1
dir=$2
case_name=$3

plan_lines() { grep -E '^(exec-)?(seed|event) '; }

# Appends one plan's text, as --print-plan prints it, under a comment.
add_plan() {
  echo "# $*"
  "$chaos" "$@" --print-plan | plan_lines
}

file=$dir/chaos-$case_name.plan
case $case_name in
  two-mc)
    { add_plan --seed=5; add_plan --seed=6; } > "$file" || exit 1
    ;;
  mc-exec)
    { add_plan --seed=5; add_plan --backend=threads --seed=5; } > "$file" \
      || exit 1
    ;;
  *)
    echo "unknown case '$case_name'"
    exit 1
    ;;
esac

out=$("$chaos" --plan-file="$file" --print-plan)
status=$?
echo "exit status $status:"
echo "$out"
test "$status" -eq 0 || exit 1
# Every plan is printed back unchanged, in file order.
test "$(echo "$out" | plan_lines)" = "$(plan_lines < "$file")" || exit 1
case $case_name in
  two-mc)
    echo "$out" | grep -q '^chaos\[mc\]: 2 plans' &&
      ! echo "$out" | grep -q '^chaos\[threads\]'
    ;;
  mc-exec)
    echo "$out" | grep -q '^chaos\[mc\]: 1 plans' &&
      echo "$out" | grep -q '^chaos\[threads\]: 1 plans'
    ;;
esac
