(* Tests of the benchmark itself: exact nearest-rank percentiles against
   a brute-force reference, and BENCHMARK.json against the definitions
   it is rendered from. *)

open Perfbench_lib

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

(* sorted brute force: walk the sorted samples to the first one that at
   least [num/den] of all samples are at or below, and count the samples
   ranked after it *)
let reference (q : Pct.q) a =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  let i = ref 0 in
  while (!i + 1) * q.den < q.num * n do
    incr i
  done;
  (s.(!i), n - (!i + 1))

let test_percentiles () =
  let rng = Random.State.make [| 11 |] in
  for trial = 1 to 400 do
    let n = 1 + Random.State.int rng (if trial mod 4 = 0 then 30_000 else 3000) in
    let range = if trial mod 3 = 0 then 5 else 1_000_000 in
    let a = Array.init n (fun _ -> Random.State.int rng range) in
    let sorted = Array.copy a in
    Array.sort compare sorted;
    List.iter
      (fun (q : Pct.q) ->
        let x, beyond = reference q a in
        let name = Printf.sprintf "%s of %d samples (trial %d)" q.label n trial in
        match Pct.of_sorted q sorted with
        | Some v -> check name (beyond >= Pct.min_beyond && v = x)
        | None -> check (name ^ " withheld") (beyond < Pct.min_beyond))
      [ Pct.p50; Pct.p999; { Pct.label = "p99"; num = 99; den = 100 } ]
  done;
  (* the edges of the ten-beyond rule *)
  let ramp n = Array.init n (fun i -> i) in
  check "p99.9 of 9999 samples has 9 beyond"
    (Pct.of_sorted Pct.p999 (ramp 9999) = None);
  check "p99.9 of 10000 samples"
    (Pct.of_sorted Pct.p999 (ramp 10000) = Some 9989);
  check "p50 of 20 samples" (Pct.of_sorted Pct.p50 (ramp 20) = Some 9);
  check "empty" (Pct.of_sorted Pct.p50 [||] = None);
  check "iqm drops a quarter at each end" (Pct.iqm (ramp 8) = Some 3.5);
  check "iqm of one sample" (Pct.iqm [| 7 |] = Some 7.0)

let test_spec () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let committed = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check "BENCHMARK.json matches perfbench --write-spec"
    (committed = Spec.benchmark_json ())

let () =
  test_percentiles ();
  test_spec ();
  if !failures > 0 then exit 1;
  print_endline "perfbench tests passed"
