# Sourced by the CI checker steps. `golden NAME ARGS...` runs
# `prep_cli.exe ARGS...`, prints its stdout and keeps it in NAME.out, then
# diffs that stdout plus a final "exit CODE" line against
# test/golden/check/NAME.out. It returns the command's exit code, or 99
# when the output or the exit code drifted from the recorded file.
golden() {
  local name=$1
  shift
  local code=0
  opam exec -- dune exec bin/prep_cli.exe -- "$@" > "$name.out" || code=$?
  cat "$name.out"
  if ! { cat "$name.out"; echo "exit $code"; } \
      | diff "test/golden/check/$name.out" -; then
    echo "stdout or exit code differs from test/golden/check/$name.out"
    return 99
  fi
  return "$code"
}
